module Vector = Kregret_geom.Vector

type t = Dd.t

let create ?bound ~dim () = Dd.create ?bound ~dim ()

let insert t p =
  if not (Vector.is_nonneg ~eps:0. p) then
    invalid_arg "Dual_polytope.insert: points must be non-negative";
  Dd.add_constraint t ~normal:p ~offset:1.

let champion t q = Dd.max_dot t q

let critical_ratio t q =
  let _, m = champion t q in
  if m <= 0. then infinity else 1. /. m

let max_regret_ratio t ~data =
  let worst =
    List.fold_left (fun acc q -> Float.min acc (critical_ratio t q)) infinity data
  in
  Float.max 0. (1. -. worst)

let num_vertices = Dd.num_vertices
let flat_view = Dd.flat_view
let dd t = t
