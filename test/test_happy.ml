open Testutil
module Vector = Kregret_geom.Vector
module Happy = Kregret_happy.Happy
module Skyline = Kregret_skyline.Skyline
module Extreme = Kregret_hull.Extreme
module Dataset = Kregret_dataset.Dataset
module Generator = Kregret_dataset.Generator
module Rng = Kregret_dataset.Rng
module Flat = Kregret_geom.Flat
module Pool = Kregret_parallel.Pool

(* A hand-constructed 2-D configuration with all three candidate tiers
   strictly separated, mirroring the paper's running example:
   - p_a, p_b: dimension boundary points (on the hull),
   - p_c: on the hull,
   - p_d: skyline but subjugated by p_c (inside Conv({p_c} + VC)),
   - p_e: skyline, inside Conv(D) (not extreme), but not subjugated by any
     single point — happy but not convex. *)
let p_a = [| 1.0; 0.05 |]
let p_b = [| 0.05; 1.0 |]
let p_c = [| 0.8; 0.8 |]
let p_d = [| 0.83; 0.55 |]
let p_e = [| 0.92; 0.34 |]
let tiers = [| p_a; p_b; p_c; p_d; p_e |]

let test_cut_box_vertices_2d () =
  (* q = (0.5, 0.5): the halfspace w.q <= 1 keeps the whole unit box except
     corner (1,1) is exactly on it: vertices = 4 box corners *)
  let vs = Happy.cut_box_vertices [| 0.5; 0.5 |] in
  Alcotest.(check int) "box survives" 4 (List.length vs);
  (* q = (1, 1): corner (1,1) cut, edge intersections at (1,0)... the corners
     (1,0),(0,1) are ON the plane; vertices: (0,0),(1,0),(0,1) *)
  let vs = Happy.cut_box_vertices [| 1.; 1. |] in
  Alcotest.(check int) "corner cut" 3 (List.length vs);
  (* q = (0.8, 0.8): cut leaves (0,0),(1,0),(0,1) + intersections (1, 0.25)
     and (0.25, 1) *)
  let vs = Happy.cut_box_vertices [| 0.8; 0.8 |] in
  Alcotest.(check int) "pentagon" 5 (List.length vs)

let test_subjugation_simplex_case () =
  (* q inside the unit simplex: everything with coordinate sum < 1 is
     subjugated (by the simplex facet), sum = 1 is not *)
  let q = [| 0.3; 0.3 |] in
  Alcotest.(check bool) "below simplex" true (Happy.subjugates q [| 0.4; 0.4 |]);
  Alcotest.(check bool) "on simplex" false (Happy.subjugates q [| 0.5; 0.5 |]);
  Alcotest.(check bool) "above simplex" false (Happy.subjugates q [| 0.6; 0.6 |])

let test_subjugation_vertex_case () =
  Alcotest.(check bool) "p_d subjugated by p_c" true (Happy.subjugates p_c p_d);
  Alcotest.(check bool) "p_e not subjugated by p_c" false (Happy.subjugates p_c p_e);
  Alcotest.(check bool) "no self subjugation" false (Happy.subjugates p_c p_c);
  Alcotest.(check bool) "hull point not subjugated" false (Happy.subjugates p_c p_a)

let test_dominated_is_subjugated () =
  (* per Lemma 3's proof: dominance implies subjugation *)
  Alcotest.(check bool) "dominated" true
    (Happy.subjugates [| 0.9; 0.9 |] [| 0.85; 0.7 |])

let test_tiers () =
  let sky = Skyline.sfs tiers in
  Alcotest.(check (array int)) "all on skyline" [| 0; 1; 2; 3; 4 |] sky;
  let happy = Happy.happy_points tiers in
  Alcotest.(check (array int)) "happy excludes p_d" [| 0; 1; 2; 4 |] happy;
  let conv = Extreme.extreme_points (Array.to_list tiers) in
  Alcotest.(check int) "conv = three hull points" 3 (List.length conv);
  Alcotest.(check bool) "p_e not extreme" true
    (not (List.exists (fun p -> Vector.equal ~eps:1e-12 p p_e) conv))

let test_is_happy () =
  let candidates = Array.to_list tiers in
  Alcotest.(check bool) "p_e happy" true (Happy.is_happy ~candidates p_e);
  Alcotest.(check bool) "p_d unhappy" true (not (Happy.is_happy ~candidates p_d))

let test_of_dataset_name () =
  let ds = Generator.anti_correlated (Rng.create 5) ~n:200 ~d:3 in
  let happy = Happy.of_dataset ds in
  Alcotest.(check string) "name" "anti_correlated/happy" happy.Dataset.name

(* Lemma 3 as a property: D_conv <= D_happy <= D_sky, with membership
   inclusion (on datasets where each dimension is normalized). *)
let lemma3_property pts =
  let points = Array.of_list pts in
  let ds = Dataset.normalize (Dataset.create ~name:"qc" points) in
  let points = ds.Dataset.points in
  let sky_idx = Skyline.sfs points in
  let sky = Array.map (fun i -> points.(i)) sky_idx in
  let happy_idx = Happy.happy_points sky in
  let happy = Array.map (fun i -> sky.(i)) happy_idx in
  let conv = Extreme.extreme_points (Array.to_list sky) in
  let mem arr p = Array.exists (fun q -> Vector.equal ~eps:0. q p) arr in
  List.for_all (fun p -> mem happy p) conv
  && Array.for_all (fun p -> mem sky p) happy
  && Array.length happy <= Array.length sky

(* ---- certified skips ----------------------------------------------------- *)

(* the screen's slop *)
let eps = 1e-9

(* coordinates where rounding is most likely to bite: next to 0 and 1,
   on a coarse grid (many exact ties in the cut-box sums), or anywhere *)
let gen_coord =
  QCheck.Gen.(
    frequency
      [
        (2, return 1e-9);
        (1, map (fun k -> float_of_int k *. 1e-9) (int_range 1 5));
        (2, return (1. -. 1e-9));
        (2, return 1.);
        (1, return (1. +. 1e-9));
        (3, map (fun k -> float_of_int k /. 8.) (int_range 1 8));
        (4, float_range 1e-3 1.);
      ])

let scale v c = Array.map (fun x -> x *. c) v

(* victims placed around q's cutoff: Σp at (1 + eps)·Σq·(1 + δ), either
   along q itself (where the membership sweep is tight at λ = 1 + eps) or
   in a fresh direction *)
let gen_victims q =
  let d = Array.length q in
  let sq = Vector.sum q in
  QCheck.Gen.(
    list_repeat 16
      (pair
         (oneofl
            [ -4e-12; -2e-12; -1e-12; -1e-13; 0.; 1e-13; 1e-12; 2e-12; 3e-12;
              4e-12; 1e-11; 1e-9; 1e-6; 1e-2 ])
         (option (array_repeat d gen_coord)))
    >|= List.map (fun (delta, dir) ->
            let target = (1. +. eps) *. sq *. (1. +. delta) in
            match dir with
            | None -> scale q ((1. +. eps) *. (1. +. delta))
            | Some v -> scale v (target /. Vector.sum v)))

let arb_pairs =
  QCheck.make
    ~print:(fun (q, ps) ->
      String.concat " | " (List.map Vector.to_string (q :: ps)))
    QCheck.Gen.(
      int_range 2 9 >>= fun d ->
      array_repeat d gen_coord >>= fun q ->
      gen_victims q >|= fun ps -> (q, ps))

(* Whenever the screen would skip q for victim p, a row of q's flat vertex
   set refutes p — the sweep's verdict on the skipped pair is "inside
   P_q: no". *)
let certificate_sound (q, ps) =
  let alpha = Happy.certificate q in
  let vs = Happy.cut_box_vertices_flat q in
  List.for_all
    (fun p ->
      (not (alpha > Happy.skip_threshold p))
      || not (Flat.for_all_dot_le vs p (1. +. eps)))
    ps

(* The certificate is useful: about 1/Σq on generic points, and the skip
   fires for the large majority of victims past the cutoff. *)
let test_certificate_tight () =
  let st = test_rng 91 in
  let nonzero = ref 0 and total = ref 0 and fired = ref 0 in
  for _ = 1 to 400 do
    let d = 2 + Random.State.int st 8 in
    let q = random_point st d in
    let sq = Vector.sum q in
    if sq > 1.05 then begin
      incr total;
      let alpha = Happy.certificate q in
      if alpha > 0. then begin
        incr nonzero;
        if abs_float ((alpha *. sq) -. 1.) > 1e-10 then
          Alcotest.failf "certificate %.17g is not 1/Σq for %s" alpha
            (Vector.to_string q);
        let p = scale q (1. +. 1e-8) in
        if alpha > Happy.skip_threshold p then incr fired
      end
    end
  done;
  Alcotest.(check bool)
    (Printf.sprintf "certificate nonzero on %d of %d generic points" !nonzero
       !total)
    true
    (!nonzero * 20 >= !total * 19);
  Alcotest.(check int) "victims 1e-8 past the cutoff are skipped" !nonzero
    !fired;
  Alcotest.(check (float 0.)) "sum <= 1: no certificate" 0.
    (Happy.certificate [| 0.3; 0.6 |]);
  Alcotest.(check bool) "a negative victim coordinate: no skip" true
    (Happy.skip_threshold [| 2.; -0.1; 2. |] = infinity)

(* adversarial point sets for the screen: exact duplicates, scaled copies
   just past the cutoff, sums within a few ulps of 1 ± eps, grid snaps and
   coordinates at 1e-9 *)
let gen_screen_points =
  QCheck.Gen.(
    int_range 2 9 >>= fun d ->
    int_range 1 (if d >= 8 then 14 else 28) >>= fun n ->
    let ulps k x = Float.of_int k *. Float.epsilon *. x in
    (* [last] is the previous point, or a fresh one for the first *)
    let point last =
      array_repeat d gen_coord >>= fun v ->
      int_range (-3) 3 >>= fun u ->
      let last = Option.value last ~default:v in
      frequency
        [
          (5, return v);
          (2, return last);
          ( 2,
            oneofl [ 1e-12; 3e-12; -1e-12 ] >|= fun delta ->
            scale last ((1. +. eps) *. (1. +. delta)) );
          ( 2,
            oneofl [ 1. +. eps; 1. -. eps; 1. ] >|= fun target ->
            let target = target +. ulps u target in
            scale v (target /. Vector.sum v) );
        ]
    in
    let rec build k acc =
      if k = 0 then return (Array.of_list (List.rev acc))
      else point (List.nth_opt acc 0) >>= fun p -> build (k - 1) (p :: acc)
    in
    build n [])

let arb_screen_points =
  QCheck.make
    ~print:(fun a ->
      String.concat "; " (Array.to_list (Array.map Vector.to_string a)))
    gen_screen_points

let with_jobs j f =
  let saved = Pool.get_jobs () in
  Pool.set_jobs j;
  Fun.protect ~finally:(fun () -> Pool.set_jobs saved) f

(* The certified screen keeps exactly what the boxed reference keeps,
   index for index, at every pool width. *)
let screen_matches_reference pts =
  let candidates = Array.to_list pts in
  let reference =
    List.filter
      (fun i -> Happy.is_happy ~candidates pts.(i))
      (List.init (Array.length pts) Fun.id)
  in
  List.for_all
    (fun j ->
      let screen = with_jobs j (fun () -> Happy.happy_points pts) in
      Array.to_list screen = reference)
    [ 1; 2; 4 ]

let suite =
  [
    Alcotest.test_case "cut box vertices (2d)" `Quick test_cut_box_vertices_2d;
    Alcotest.test_case "subjugation: simplex case" `Quick test_subjugation_simplex_case;
    Alcotest.test_case "subjugation: vertex case" `Quick test_subjugation_vertex_case;
    Alcotest.test_case "dominance implies subjugation" `Quick test_dominated_is_subjugated;
    Alcotest.test_case "three candidate tiers" `Quick test_tiers;
    Alcotest.test_case "is_happy" `Quick test_is_happy;
    Alcotest.test_case "of_dataset naming" `Quick test_of_dataset_name;
    qcheck_case ~count:60 "Lemma 3: conv <= happy <= sky (d=2)"
      (qc_points ~n:25 ~d:2) lemma3_property;
    qcheck_case ~count:40 "Lemma 3: conv <= happy <= sky (d=3)"
      (qc_points ~n:20 ~d:3) lemma3_property;
    qcheck_case ~count:15 "Lemma 3: conv <= happy <= sky (d=5)"
      (qc_points ~n:15 ~d:5) lemma3_property;
    qcheck_case ~count:3000 "certified skip refuted by a V_q row (d=2..9)"
      arb_pairs certificate_sound;
    Alcotest.test_case "certificate is 1/Σq on generic points" `Quick
      test_certificate_tight;
    qcheck_case ~count:150 "screen = is_happy reference, jobs 1/2/4 (d=2..9)"
      arb_screen_points screen_matches_reference;
  ]
