type t = { reduction : Kernel.result; order : int array; mrr : float array }

let run ?max_directions ?max_length ~eps points =
  let reduction = Kernel.reduce ?max_directions ~eps points in
  let ids = reduction.Kernel.ids in
  let f =
    Kregret.Stored_list.funnel ?max_length (Kernel.select reduction points)
  in
  let order, mrr =
    Kregret.Snapshot.prefix f.Kregret.Stored_list.stored
      ~ids:(Array.map (fun i -> ids.(i)) f.Kregret.Stored_list.happy)
  in
  { reduction; order; mrr }

let stored_length t = Array.length t.order

let mrr_at t ~k =
  let len = Array.length t.order in
  if len = 0 then 0. else t.mrr.(min k len - 1)

let query t ~k =
  let len = Array.length t.order in
  (Array.to_list (Array.sub t.order 0 (min k len)), mrr_at t ~k)

let certified_bound t ~k =
  Float.min 1. (mrr_at t ~k +. t.reduction.Kernel.slack)
