type t = { mutable s0 : int64; mutable s1 : int64; mutable s2 : int64; mutable s3 : int64 }

let ( +% ) = Int64.add
let ( *% ) = Int64.mul
let ( ^% ) = Int64.logxor

let rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* splitmix64: seeds the xoshiro state from a single word *)
let splitmix_next state =
  state := !state +% 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = (z ^% Int64.shift_right_logical z 30) *% 0xBF58476D1CE4E5B9L in
  let z = (z ^% Int64.shift_right_logical z 27) *% 0x94D049BB133111EBL in
  z ^% Int64.shift_right_logical z 31

let create seed =
  let st = ref (Int64.of_int seed) in
  let s0 = splitmix_next st in
  let s1 = splitmix_next st in
  let s2 = splitmix_next st in
  let s3 = splitmix_next st in
  { s0; s1; s2; s3 }

let bits t =
  let result = rotl (t.s0 +% t.s3) 23 +% t.s0 in
  let tmp = Int64.shift_left t.s1 17 in
  t.s2 <- t.s2 ^% t.s0;
  t.s3 <- t.s3 ^% t.s1;
  t.s1 <- t.s1 ^% t.s2;
  t.s0 <- t.s0 ^% t.s3;
  t.s2 <- t.s2 ^% tmp;
  t.s3 <- rotl t.s3 45;
  result

let split t =
  let seed = Int64.to_int (bits t) in
  create seed

let float t =
  (* 53 high bits -> [0, 1) *)
  let x = Int64.shift_right_logical (bits t) 11 in
  Int64.to_float x *. 0x1.0p-53

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  int_of_float (float t *. float_of_int bound)


let gaussian t ~mu ~sigma =
  let rec nonzero () =
    let u = float t in
    if u > 1e-300 then u else nonzero ()
  in
  let u1 = nonzero () and u2 = float t in
  mu +. (sigma *. sqrt (-2. *. log u1) *. cos (2. *. Float.pi *. u2))

let exponential t ~rate =
  if rate <= 0. then invalid_arg "Rng.exponential: rate must be positive";
  let rec nonzero () =
    let u = float t in
    if u > 1e-300 then u else nonzero ()
  in
  -.log (nonzero ()) /. rate
