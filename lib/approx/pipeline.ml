module Skyline = Kregret_skyline.Skyline
module Happy = Kregret_happy.Happy
module Stored_list = Kregret.Stored_list

type t = {
  reduction : Kernel.result;
  sky_ids : int array;
  happy_ids : int array;
  stored : Stored_list.t option;
  order : int array;
}

let run ?max_directions ?max_length ~eps points =
  let reduction = Kernel.reduce ?max_directions ~eps points in
  let kvecs = Kernel.select reduction points in
  let sky_idx = Skyline.sfs kvecs in
  let sky_vecs = Array.map (fun i -> kvecs.(i)) sky_idx in
  let sky_ids = Array.map (fun i -> reduction.Kernel.ids.(i)) sky_idx in
  let hap_idx = Happy.happy_points sky_vecs in
  let hap_vecs = Array.map (fun i -> sky_vecs.(i)) hap_idx in
  let happy_ids = Array.map (fun i -> sky_ids.(i)) hap_idx in
  let stored =
    if Array.length hap_vecs = 0 then None
    else Some (Stored_list.preprocess ?max_length hap_vecs)
  in
  let order =
    match stored with
    | None -> [||]
    | Some sl ->
        Array.of_list (List.map (fun i -> happy_ids.(i)) (Stored_list.order sl))
  in
  { reduction; sky_ids; happy_ids; stored; order }

let stored_length t = Array.length t.order

let query t ~k =
  match t.stored with
  | None -> ([], 0.)
  | Some sl ->
      let len = Array.length t.order in
      let k' = if k < len then k else len in
      let sel = Array.to_list (Array.sub t.order 0 k') in
      (sel, Stored_list.mrr_at sl ~k:k')

let mrr_at t ~k =
  match t.stored with
  | None -> 0.
  | Some sl ->
      let len = Array.length t.order in
      let k' = if k < len then k else len in
      Stored_list.mrr_at sl ~k:k'

let certified_bound t ~k =
  Float.min 1. (mrr_at t ~k +. t.reduction.Kernel.slack)
