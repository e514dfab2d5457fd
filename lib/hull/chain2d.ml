module Vector = Kregret_geom.Vector

type hull = { chain : Vector.t array }

let check2d points =
  if points = [] then invalid_arg "Chain2d: empty point set";
  List.iter
    (fun p -> if Vector.dim p <> 2 then invalid_arg "Chain2d: 2-D points only")
    points

let cross o a b =
  ((a.(0) -. o.(0)) *. (b.(1) -. o.(1)))
  -. ((a.(1) -. o.(1)) *. (b.(0) -. o.(0)))

(* Upper-right chain of the downward closure: sort by x descending (y
   ascending on ties is irrelevant: ties cannot both be extreme), then build
   a chain turning left (counter-clockwise) — exactly Andrew's monotone chain
   on the sequence from the max-x vertex (x_max, 0) to the max-y vertex
   (0, y_max). *)
let upper_chain points =
  check2d points;
  let xmax = List.fold_left (fun m p -> Float.max m p.(0)) 0. points in
  let ymax = List.fold_left (fun m p -> Float.max m p.(1)) 0. points in
  let pts =
    List.sort
      (fun a b ->
        match compare b.(0) a.(0) with 0 -> compare a.(1) b.(1) | c -> c)
      ([| xmax; 0. |] :: [| 0.; ymax |] :: points)
  in
  let chain = ref [] in
  List.iter
    (fun p ->
      let rec pop = function
        | a :: b :: rest when cross b a p <= 1e-12 -> pop (b :: rest)
        | st -> st
      in
      chain := p :: pop !chain)
    pts;
  (* !chain is ordered by increasing x (we pushed in decreasing order);
     restore decreasing x, drop the two axis sentinels *)
  let inner =
    List.filter (fun p -> p.(0) > 1e-12 && p.(1) > 1e-12) !chain
  in
  { chain = Array.of_list (List.rev inner) }

let critical_ratio { chain } q =
  if Vector.dim q <> 2 then invalid_arg "Chain2d.critical_ratio: 2-D only";
  let n = Array.length chain in
  assert (n > 0);
  let best = ref infinity in
  let consider normal offset =
    let denom = Vector.dot normal q in
    if denom > 1e-300 then best := Float.min !best (offset /. denom)
  in
  (* vertical face at x = x of the max-x extreme point *)
  consider [| 1.; 0. |] chain.(0).(0);
  (* horizontal face at y = y of the max-y extreme point *)
  consider [| 0.; 1. |] chain.(n - 1).(1);
  for i = 0 to n - 2 do
    let p1 = chain.(i) and p2 = chain.(i + 1) in
    let normal = [| p2.(1) -. p1.(1); p1.(0) -. p2.(0) |] in
    consider normal (Vector.dot normal p1)
  done;
  !best
