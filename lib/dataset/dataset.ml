module Vector = Kregret_geom.Vector

type t = { name : string; dim : int; points : Vector.t array }

let create ~name points =
  if Array.length points = 0 then invalid_arg "Dataset.create: empty";
  let dim = Vector.dim points.(0) in
  Array.iter
    (fun p ->
      if Vector.dim p <> dim then invalid_arg "Dataset.create: mixed dimensions")
    points;
  { name; dim; points }

let size t = Array.length t.points
let to_list t = Array.to_list t.points

(* Normalized values are floored here to respect the paper's
   strict-positivity assumption. *)
let value_floor = 1e-6

let normalize t =
  let maxima = Array.make t.dim 0. in
  Array.iter
    (fun p ->
      for i = 0 to t.dim - 1 do
        if p.(i) < 0. then
          invalid_arg "Dataset.normalize: negative value";
        if p.(i) > maxima.(i) then maxima.(i) <- p.(i)
      done)
    t.points;
  Array.iteri
    (fun i m ->
      if m <= 0. then
        invalid_arg
          (Printf.sprintf "Dataset.normalize: dimension %d is identically zero" i))
    maxima;
  let points =
    Array.map
      (fun p ->
        Array.init t.dim (fun i -> Float.max value_floor (p.(i) /. maxima.(i))))
      t.points
  in
  { t with points }

let is_normalized ~eps t =
  let seen_one = Array.make t.dim false in
  let ok = ref true in
  Array.iter
    (fun p ->
      for i = 0 to t.dim - 1 do
        if p.(i) <= 0. || p.(i) > 1. +. eps then ok := false;
        if p.(i) >= 1. -. eps then seen_one.(i) <- true
      done)
    t.points;
  !ok && Array.for_all Fun.id seen_one

let boundary_point t i =
  if i < 0 || i >= t.dim then invalid_arg "Dataset.boundary_point: bad dimension";
  let best = ref 0 in
  Array.iteri
    (fun j p -> if p.(i) > t.points.(!best).(i) then best := j)
    t.points;
  !best

let sub t ~indices =
  create ~name:t.name (Array.map (fun i -> t.points.(i)) indices)

let pp_stats ppf t =
  Format.fprintf ppf "%s: n=%d d=%d" t.name (size t) t.dim
