module Vector = Kregret_geom.Vector
module Rng = Kregret_dataset.Rng
module Dataset = Kregret_dataset.Dataset
module Generator = Kregret_dataset.Generator

type t = {
  id : int;
  seed : int;
  dist : string;
  degeneracies : string list;
  k : int;
  points : Vector.t array;
}

let n t = Array.length t.points
let d t = Vector.dim t.points.(0)

let normalize_points ~name points =
  (Dataset.normalize (Dataset.create ~name points)).Dataset.points

(* ---- degenerate transforms ----------------------------------------------

   Each transform mutates a copy of the point array in place; the caller
   re-normalizes afterwards. They deliberately manufacture the situations
   where floating-point geometry codes break: exact duplicates, many-way
   coordinate ties, collinear chains, points snapped to a coarse lattice. *)

let floor_pos x = Float.max 1e-6 x

let apply_duplicates r pts =
  let n = Array.length pts in
  if n >= 2 then
    for _ = 1 to 1 + (n / 8) do
      let src = Rng.int r n and dst = Rng.int r n in
      pts.(dst) <- Array.copy pts.(src)
    done

let apply_snap r pts =
  let g = [| 4.; 8.; 16. |].(Rng.int r 3) in
  Array.iteri
    (fun i p ->
      pts.(i) <- Array.map (fun x -> floor_pos (Float.round (x *. g) /. g)) p)
    pts

let apply_collinear r pts =
  let n = Array.length pts in
  if n >= 3 then begin
    let a = pts.(Rng.int r n) and b = pts.(Rng.int r n) in
    for _ = 1 to 1 + (n / 6) do
      (* grid lambdas produce repeated points on the segment as well *)
      let lambda = float_of_int (Rng.int r 5) /. 4. in
      pts.(Rng.int r n) <-
        Array.map2
          (fun x y -> floor_pos ((lambda *. x) +. ((1. -. lambda) *. y)))
          a b
    done
  end

let apply_axis_ties r pts =
  let n = Array.length pts in
  let d = Vector.dim pts.(0) in
  let dim = Rng.int r d in
  let v = pts.(Rng.int r n).(dim) in
  for j = 0 to n - 1 do
    if Rng.float r < 0.4 then begin
      let p = Array.copy pts.(j) in
      p.(dim) <- v;
      pts.(j) <- p
    end
  done

let transforms =
  [
    ("duplicates", apply_duplicates);
    ("snap", apply_snap);
    ("collinear", apply_collinear);
    ("axis_ties", apply_axis_ties);
  ]

(* ---- generation ---------------------------------------------------------- *)

let dists = [| "independent"; "correlated"; "anti_correlated" |]

let generate ~seed ~id master =
  let r = Rng.split master in
  let d = [| 2; 2; 3; 3; 4; 5; 6; 7 |].(Rng.int r 8) in
  (* biased toward small instances: tiny sets shake out degenerate-geometry
     bugs fastest and shrink quickly; the occasional large draw covers the
     paper-scale regime (n up to 400) *)
  let cap = [| 8; 25; 60; 400 |].(Rng.int r 4) in
  let n = 1 + Rng.int r cap in
  let k = 1 + Rng.int r 10 in
  let dist = dists.(Rng.int r (Array.length dists)) in
  let ds = Generator.by_name dist r ~n ~d in
  let pts = Array.map Array.copy ds.Dataset.points in
  let degeneracies =
    List.filter_map
      (fun (name, apply) ->
        if Rng.float r < 0.3 then begin
          apply r pts;
          Some name
        end
        else None)
      transforms
  in
  let points = normalize_points ~name:(Printf.sprintf "fuzz-%d" id) pts in
  { id; seed; dist; degeneracies; k; points }

let rng t = Rng.create ((t.seed * 1_000_003) + t.id)

let to_dataset t =
  Dataset.create ~name:(Printf.sprintf "fuzz-%d" t.id) t.points

let with_points t points =
  {
    t with
    points = normalize_points ~name:(Printf.sprintf "fuzz-%d" t.id) points;
  }

let with_k t k =
  if k < 1 then invalid_arg "Instance.with_k: k must be positive";
  { t with k }

let drop_dim t i =
  let dd = d t in
  if dd <= 2 then invalid_arg "Instance.drop_dim: already at d = 2";
  if i < 0 || i >= dd then invalid_arg "Instance.drop_dim: bad dimension";
  let points =
    Array.map
      (fun p -> Array.init (dd - 1) (fun j -> if j < i then p.(j) else p.(j + 1)))
      t.points
  in
  with_points t points

let describe t =
  Printf.sprintf "instance %d (seed %d): %s n=%d d=%d k=%d%s" t.id t.seed
    t.dist (n t) (d t) t.k
    (match t.degeneracies with
    | [] -> ""
    | l -> " degeneracies=" ^ String.concat "+" l)
