(* Shared helpers for the test suites. *)

module Vector = Kregret_geom.Vector

(* The shared agreement tolerance lives in one place (lib/check): tests,
   oracle and validation all compare floats with the same slack. *)
let float_eps = Kregret_check.Tolerance.tie
let geom_eps = Kregret_check.Tolerance.geom

(* Alcotest checker for floats with absolute tolerance. *)
let approx ?(eps = float_eps) () =
  Alcotest.testable
    (fun ppf x -> Format.fprintf ppf "%.9f" x)
    (fun a b -> abs_float (a -. b) <= eps)

let check_float ?eps msg expected actual =
  Alcotest.check (approx ?eps ()) msg expected actual

let vector : Vector.t Alcotest.testable =
  Alcotest.testable Vector.pp (Vector.equal ~eps:float_eps)

(* Deterministic pseudo-random generator for tests that build their own data
   (qcheck generators carry their own state). *)
let test_rng seed = Random.State.make [| seed; 0x5eed |]

let random_point st d =
  Array.init d (fun _ -> 0.05 +. (Random.State.float st 0.95))

let random_points st ~n ~d = List.init n (fun _ -> random_point st d)

(* Counts live in Kregret_obs, per process: a test that reads them records
   for its duration, from a reset registry, and leaves it reset and off. *)
let recording f =
  Kregret_obs.Registry.reset ();
  Kregret_obs.Control.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Kregret_obs.Control.set_enabled false;
      Kregret_obs.Registry.reset ())
    f

(* QCheck arbitrary for points in (0,1]^d. *)
let qc_point d =
  QCheck.make
    ~print:(fun v -> Vector.to_string v)
    QCheck.Gen.(
      array_size (return d) (float_range 0.01 1.0))

let qc_points ~n ~d =
  QCheck.make
    ~print:(fun l -> String.concat "; " (List.map Vector.to_string l))
    QCheck.Gen.(
      list_size (int_range 1 n) (array_size (return d) (float_range 0.01 1.0)))

let qcheck_case ?(count = 100) name arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb prop)

(* [contains s sub] — naive substring search; error-message assertions. *)
let contains s sub =
  let n = String.length s and m = String.length sub in
  m = 0
  ||
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0
