type t = {
  reduction : Kernel.result;
  sky : int array;
  n_happy : int;
  order : int array;
  mrr : float array;
}

let run ?max_length ~eps points =
  let reduction = Kernel.reduce ~eps points in
  let ids = reduction.Kernel.ids in
  let f =
    Kregret.Stored_list.funnel ?max_length (Kernel.select reduction points)
  in
  let sky = Array.map (fun i -> ids.(i)) f.Kregret.Stored_list.sky in
  let order, mrr = Kregret.Snapshot.prefix f.Kregret.Stored_list.stored ~ids:sky in
  (* the kernel's skyline is small (14 of 10⁵ rows on a d = 3, ε = 0.1
     load), so the exact happy count costs one full screen of it *)
  let n_happy =
    Array.length
      (Kregret_happy.Happy.happy_points (Array.map (fun i -> points.(i)) sky))
  in
  { reduction; sky; n_happy; order; mrr }

let stored_length t = Array.length t.order

let mrr_at t ~k =
  let len = Array.length t.order in
  if len = 0 then 0. else t.mrr.(min k len - 1)

let query t ~k =
  let len = Array.length t.order in
  (Array.to_list (Array.sub t.order 0 (min k len)), mrr_at t ~k)

let certified_bound t ~k =
  Float.min 1. (mrr_at t ~k +. t.reduction.Kernel.slack)
