type t = float array

let dim = Array.length
let init = Array.init
let copy = Array.copy
let zero d = Array.make d 0.

let basis d i =
  if i < 0 || i >= d then invalid_arg "Vector.basis: index out of range";
  let v = Array.make d 0. in
  v.(i) <- 1.;
  v

let check_dim u v name =
  if Array.length u <> Array.length v then
    invalid_arg (name ^ ": dimension mismatch")

(* Unrolled by 4 on a single accumulator chain: ((((acc + x0) + x1) + x2)
   + x3) is the sequential loop's exact rounding order, so the unroll is
   bit-identical to the naive loop while dropping most of the per-iteration
   branch and bounds traffic. No dimension check: callers guarantee
   [length v >= length u] (the kernel-side contract; see .mli). *)
let dot_unsafe u v =
  let d = Array.length u in
  let acc = ref 0. in
  let i = ref 0 in
  while !i + 3 < d do
    let j = !i in
    acc :=
      !acc
      +. (Array.unsafe_get u j *. Array.unsafe_get v j)
      +. (Array.unsafe_get u (j + 1) *. Array.unsafe_get v (j + 1))
      +. (Array.unsafe_get u (j + 2) *. Array.unsafe_get v (j + 2))
      +. (Array.unsafe_get u (j + 3) *. Array.unsafe_get v (j + 3));
    i := !i + 4
  done;
  while !i < d do
    acc := !acc +. (Array.unsafe_get u !i *. Array.unsafe_get v !i);
    incr i
  done;
  !acc

let dot u v =
  check_dim u v "Vector.dot";
  dot_unsafe u v

let norm v = sqrt (dot v v)

let norm1 v = Array.fold_left (fun acc x -> acc +. abs_float x) 0. v

let norm_inf v = Array.fold_left (fun acc x -> Float.max acc (abs_float x)) 0. v

let add u v =
  check_dim u v "Vector.add";
  Array.init (Array.length u) (fun i -> u.(i) +. v.(i))

let sub u v =
  check_dim u v "Vector.sub";
  Array.init (Array.length u) (fun i -> u.(i) -. v.(i))

let scale a v = Array.map (fun x -> a *. x) v

let add_in_place u v =
  check_dim u v "Vector.add_in_place";
  for i = 0 to Array.length u - 1 do
    u.(i) <- u.(i) +. v.(i)
  done

let scale_in_place a v =
  for i = 0 to Array.length v - 1 do
    v.(i) <- a *. v.(i)
  done

let normalize v =
  let n = norm v in
  if n = 0. then invalid_arg "Vector.normalize: zero vector";
  scale (1. /. n) v

let lerp u v t =
  check_dim u v "Vector.lerp";
  Array.init (Array.length u) (fun i -> ((1. -. t) *. u.(i)) +. (t *. v.(i)))

let equal ~eps u v =
  Array.length u = Array.length v
  &&
  let rec go i =
    i >= Array.length u || (abs_float (u.(i) -. v.(i)) <= eps && go (i + 1))
  in
  go 0

let extremum_coord better v =
  let best = ref 0 in
  for i = 1 to Array.length v - 1 do
    if better v.(i) v.(!best) then best := i
  done;
  (!best, v.(!best))

let max_coord v = extremum_coord (fun a b -> a > b) v
let min_coord v = extremum_coord (fun a b -> a < b) v
let sum v = Array.fold_left ( +. ) 0. v
let is_nonneg ~eps v = Array.for_all (fun x -> x >= -.eps) v

let pp ppf v =
  Format.fprintf ppf "(";
  Array.iteri
    (fun i x ->
      if i > 0 then Format.fprintf ppf ", ";
      Format.fprintf ppf "%.4f" x)
    v;
  Format.fprintf ppf ")"

let to_string v = Format.asprintf "%a" pp v
