(* Order statistics for the benchmark's samples. *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(* Quartiles the way Python's [statistics.quantiles(xs, n=4)] computes them
   (the default "exclusive" method), so the figures this program records
   match the spreads a reader recomputes from its output. *)
let quartiles xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then (nan, nan, nan)
  else if n = 1 then (a.(0), a.(0), a.(0))
  else
    let q i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 2, q 3)

let median xs =
  let _, m, _ = quartiles xs in
  m

let mean xs =
  if Array.length xs = 0 then nan
  else Array.fold_left ( +. ) 0. xs /. float_of_int (Array.length xs)

(* nearest-rank percentile, [p] in (0, 1] *)
let percentile xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

let ratio num den = if den = 0 then 0. else float_of_int num /. float_of_int den
