(* Stress and consistency tests for the double-description engine: the
   incremental structure must agree with a from-scratch rebuild and with the
   LP oracle across dimensions, insertion orders, and degeneracies. *)

open Testutil
module Vector = Kregret_geom.Vector
module Dd = Kregret_hull.Dd
module Dual_polytope = Kregret_hull.Dual_polytope
module Regret_lp = Kregret_lp.Regret_lp

let build_dd ~bound ~dim constraints =
  let t = Dd.create ~bound ~dim () in
  List.iter (fun (normal, offset) -> ignore (Dd.add_constraint t ~normal ~offset)) constraints;
  t

let vertex_set t =
  List.sort compare
    (List.map (fun v -> Array.to_list v.Dd.w) (Dd.vertices t))

let approx_same_sets a b =
  List.length a = List.length b
  && List.for_all2
       (fun u v -> List.for_all2 (fun x y -> abs_float (x -. y) < float_eps) u v)
       a b

let test_order_independence () =
  let st = test_rng 71 in
  for _trial = 1 to 8 do
    let d = 2 + Random.State.int st 3 in
    let cons =
      List.map (fun p -> (p, 1.)) (random_points st ~n:12 ~d)
    in
    let shuffled =
      List.map snd
        (List.sort compare
           (List.map (fun c -> (Random.State.float st 1., c)) cons))
    in
    let a = build_dd ~bound:2. ~dim:d cons in
    let b = build_dd ~bound:2. ~dim:d shuffled in
    Dd.check_invariants a;
    Dd.check_invariants b;
    Alcotest.(check bool)
      (Printf.sprintf "same vertex set regardless of order (d=%d)" d)
      true
      (approx_same_sets (vertex_set a) (vertex_set b))
  done

let test_event_bookkeeping () =
  (* the event stream must account exactly for the vertex-set delta *)
  let st = test_rng 72 in
  let t = Dd.create ~bound:2. ~dim:3 () in
  List.iter
    (fun p ->
      let before =
        List.sort compare (List.map (fun v -> v.Dd.id) (Dd.vertices t))
      in
      let ev = Dd.add_constraint t ~normal:p ~offset:1. in
      let after =
        List.sort compare (List.map (fun v -> v.Dd.id) (Dd.vertices t))
      in
      let expected =
        List.sort compare
          (List.map (fun v -> v.Dd.id) ev.Dd.created
          @ List.filter (fun id -> not (List.mem id ev.Dd.removed)) before)
      in
      Alcotest.(check (list int)) "delta accounts for vertex set" expected after;
      (* removed ids must be gone, created ids must be live *)
      List.iter
        (fun id ->
          Alcotest.(check bool) "removed is gone" true (Dd.find_vertex t id = None))
        ev.Dd.removed;
      List.iter
        (fun v ->
          Alcotest.(check bool) "created is live" true
            (Dd.find_vertex t v.Dd.id <> None))
        ev.Dd.created)
    (random_points st ~n:20 ~d:3)

let test_contains_vs_constraints () =
  let st = test_rng 73 in
  let cons = List.map (fun p -> (p, 1.)) (random_points st ~n:10 ~d:3) in
  let t = build_dd ~bound:2. ~dim:3 cons in
  for _ = 1 to 200 do
    let w = Array.init 3 (fun _ -> Random.State.float st 1.5) in
    let manual =
      Vector.is_nonneg ~eps:geom_eps w
      && List.for_all (fun (a, b) -> Vector.dot a w <= b +. 1e-7) cons
      && Array.for_all (fun x -> x <= 2. +. 1e-7) w
    in
    Alcotest.(check bool) "contains agrees with direct check" manual
      (Dd.contains ~eps:1e-7 t w)
  done

let test_support_vs_lp_dim_sweep () =
  let st = test_rng 74 in
  List.iter
    (fun d ->
      let boundary =
        List.init d (fun i ->
            Array.init d (fun j ->
                if i = j then 1. else 0.1 +. (0.6 *. Random.State.float st 1.)))
      in
      let selected = boundary @ random_points st ~n:8 ~d in
      let dp = Dual_polytope.create ~dim:d () in
      List.iter (fun p -> ignore (Dual_polytope.insert dp p)) selected;
      for _ = 1 to 5 do
        let q = random_point st d in
        let geo = Dual_polytope.critical_ratio dp q in
        let lp, _ = Regret_lp.critical_ratio ~selected q in
        check_float ~eps:float_eps (Printf.sprintf "cr d=%d" d) lp geo
      done)
    [ 2; 3; 4; 5; 6; 7 ]

let test_redundant_insertions_stable () =
  let st = test_rng 75 in
  let base = random_points st ~n:8 ~d:3 in
  let t = build_dd ~bound:2. ~dim:3 (List.map (fun p -> (p, 1.)) base) in
  let before = vertex_set t in
  (* re-adding every constraint is a no-op *)
  List.iter
    (fun p ->
      let ev = Dd.add_constraint t ~normal:p ~offset:1. in
      Alcotest.(check bool) "redundant" true ev.Dd.redundant)
    base;
  Alcotest.(check bool) "vertex set unchanged" true
    (approx_same_sets before (vertex_set t));
  Dd.check_invariants t

let test_shrinking_nested_constraints () =
  (* a sequence of parallel constraints with decreasing offsets: each one
     cuts, the polytope shrinks monotonically *)
  let t = Dd.create ~bound:1. ~dim:2 () in
  let count = ref (Dd.num_vertices t) in
  List.iter
    (fun offset ->
      let ev = Dd.add_constraint t ~normal:[| 1.; 1. |] ~offset in
      Alcotest.(check bool) "cuts" false ev.Dd.redundant;
      Dd.check_invariants t;
      count := Dd.num_vertices t)
    [ 1.8; 1.4; 1.0; 0.6; 0.2 ];
  (* final region is a small triangle *)
  Alcotest.(check int) "triangle" 3 !count

let test_num_constraints_accounting () =
  let t = Dd.create ~bound:1. ~dim:4 () in
  Alcotest.(check int) "zero user constraints" 0 (Dd.num_constraints t);
  ignore (Dd.add_constraint t ~normal:[| 1.; 1.; 1.; 1. |] ~offset:2.);
  ignore (Dd.add_constraint t ~normal:[| 1.; 0.; 0.; 0. |] ~offset:0.5);
  Alcotest.(check int) "two" 2 (Dd.num_constraints t);
  Alcotest.(check int) "dim" 4 (Dd.dim t)

(* ---- bitset adjacency ---------------------------------------------------- *)

let naive_popcount x =
  let c = ref 0 in
  for b = 0 to 61 do
    if x land (1 lsl b) <> 0 then incr c
  done;
  !c

let arb_word =
  QCheck.make ~print:string_of_int
    QCheck.Gen.(
      map2 (fun hi lo -> (hi lsl 31) lor lo) (int_bound 0x7fff_ffff)
        (int_bound 0x7fff_ffff))

let test_popcount_edges () =
  List.iter
    (fun x ->
      Alcotest.(check int) (Printf.sprintf "popcount %#x" x) (naive_popcount x)
        (Dd.popcount x))
    ([ 0; 1; (1 lsl 62) - 1; 0x1555_5555_5555_5555; 0x2aaa_aaaa_aaaa_aaaa ]
    @ List.init 62 (fun b -> 1 lsl b)
    @ List.init 62 (fun b -> (1 lsl 62) - 1 - (1 lsl b)))

(* More than 62 constraints put every tight set on two bitset words;
   vertices born early keep one word. *)
let test_invariants_past_62_constraints () =
  let st = test_rng 73 in
  List.iter
    (fun d ->
      let t =
        build_dd ~bound:2. ~dim:d
          (List.map (fun p -> (p, 1.)) (random_points st ~n:90 ~d))
      in
      Alcotest.(check bool)
        (Printf.sprintf "d=%d: past 62 constraints" d)
        true
        ((2 * d) + Dd.num_constraints t > 62);
      Dd.check_invariants t)
    [ 2; 3; 4 ]

(* GeoGreedy on seeded anti-correlated inputs, recorded before the bitset
   pre-test and the certified happy screen: sizes of the skyline and the
   happy set, the selection order, the mrr bits and the dual vertices the
   DD step created. The last two runs pass 62 constraints, so their
   adjacency tests span two bitset words. *)
type golden = {
  d : int;
  n : int;
  k : int;
  seed : int;
  sky : int;
  happy : int;
  order : int list;
  mrr_bits : int64;
  created : int;
}

let goldens =
  [
  { d = 3; n = 500; k = 12; seed = 31; sky = 48; happy = 24;
    order = [ 15; 9; 7; 11; 12; 4; 22; 23; 10; 5 ];
    mrr_bits = 0x0L; created = 48 };
  { d = 4; n = 500; k = 12; seed = 41; sky = 128; happy = 40;
    order = [ 28; 16; 2; 37; 29; 6; 33; 32; 5; 23; 30; 11 ];
    mrr_bits = 0x3f94094f4c193d80L; created = 118 };
  { d = 5; n = 400; k = 14; seed = 51; sky = 242; happy = 140;
    order = [ 2; 92; 113; 29; 128; 56; 14; 7; 97; 114; 23; 78; 65; 74 ];
    mrr_bits = 0x3fbaf64708cc89f8L; created = 331 };
  { d = 6; n = 400; k = 16; seed = 61; sky = 316; happy = 246;
    order = [ 239; 146; 238; 237; 15; 78; 156; 154; 135; 214; 136; 235; 228;
      81; 114; 175 ];
    mrr_bits = 0x3fc1787c0e471cecL; created = 974 };
  { d = 7; n = 300; k = 16; seed = 71; sky = 278; happy = 254;
    order = [ 225; 122; 215; 240; 142; 84; 179; 2; 208; 58; 93; 49; 19; 75;
      202; 135 ];
    mrr_bits = 0x3fca4f8a10fc1af4L; created = 2002 };
  { d = 8; n = 250; k = 16; seed = 81; sky = 245; happy = 238;
    order = [ 138; 165; 217; 144; 44; 72; 100; 24; 53; 18; 26; 115; 187; 76;
      52; 114 ];
    mrr_bits = 0x3fd123dd41e483d6L; created = 4636 };
  { d = 9; n = 200; k = 16; seed = 91; sky = 200; happy = 200;
    order = [ 191; 103; 31; 13; 199; 116; 77; 129; 180; 70; 125; 112; 52; 65;
      17; 53 ];
    mrr_bits = 0x3fd12cf0cb3f7a62L; created = 9652 };
  { d = 5; n = 1500; k = 64; seed = 53; sky = 570; happy = 253;
    order = [ 31; 230; 157; 162; 120; 36; 45; 148; 76; 135; 101; 199; 16; 211;
      175; 216; 89; 11; 80; 38; 165; 160; 113; 1; 48; 20; 30; 23; 217; 174;
      141; 78; 244; 241; 3; 132; 118; 0; 168; 112; 243; 35; 27; 37; 54; 64;
      68; 13; 204; 49; 93; 194; 133; 123; 170; 182; 21; 239; 237; 158; 62;
      136; 124; 154 ];
    mrr_bits = 0x3f4e00fb95635000L; created = 1813 };
  { d = 6; n = 400; k = 64; seed = 62; sky = 329; happy = 236;
    order = [ 156; 35; 74; 78; 101; 165; 218; 93; 178; 143; 146; 27; 150; 129;
      119; 15; 36; 103; 65; 28; 149; 95; 30; 104; 128; 177; 64; 42; 126; 220;
      63; 231; 173; 138; 99; 55; 1; 102; 43; 112; 105; 80; 148; 198; 66; 89;
      125; 196; 234; 209; 58; 53; 184; 188; 121; 16 ];
    mrr_bits = 0x0L; created = 4078 };
  ]

module Obs = Kregret_obs

let test_geo_greedy_golden () =
  Obs.Registry.reset ();
  Obs.Control.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.Control.set_enabled false;
      Obs.Registry.reset ())
  @@ fun () ->
  List.iter
    (fun g ->
      let what = Printf.sprintf "d=%d n=%d k=%d seed=%d" g.d g.n g.k g.seed in
      let ds =
        Kregret_dataset.Dataset.normalize
          (Kregret_dataset.Generator.anti_correlated
             (Kregret_dataset.Rng.create g.seed) ~n:g.n ~d:g.d)
      in
      let pts = ds.Kregret_dataset.Dataset.points in
      let sky_idx = Kregret_skyline.Skyline.sfs pts in
      let sky = Array.map (fun i -> pts.(i)) sky_idx in
      let happy =
        Array.map (fun i -> sky.(i)) (Kregret_happy.Happy.happy_points sky)
      in
      Alcotest.(check (pair int int)) (what ^ ": sky, happy") (g.sky, g.happy)
        (Array.length sky, Array.length happy);
      let created () =
        Option.value ~default:0
          (List.assoc_opt "dd.vertices_created" (Obs.Registry.counters ()))
      in
      let before = created () in
      let r = Kregret.Geo_greedy.run ~points:happy ~k:g.k () in
      Alcotest.(check (list int)) (what ^ ": order") g.order r.order;
      Alcotest.(check int64) (what ^ ": mrr bits") g.mrr_bits
        (Int64.bits_of_float r.mrr);
      Alcotest.(check int) (what ^ ": vertices created") g.created
        (created () - before))
    goldens

let suite =
  [
    Alcotest.test_case "insertion-order independence" `Quick test_order_independence;
    Alcotest.test_case "event bookkeeping" `Quick test_event_bookkeeping;
    Alcotest.test_case "contains vs direct check" `Quick test_contains_vs_constraints;
    Alcotest.test_case "cr vs LP across d=2..7" `Quick test_support_vs_lp_dim_sweep;
    Alcotest.test_case "redundant insertions stable" `Quick test_redundant_insertions_stable;
    Alcotest.test_case "nested shrinking constraints" `Quick test_shrinking_nested_constraints;
    Alcotest.test_case "constraint accounting" `Quick test_num_constraints_accounting;
    qcheck_case ~count:30 "random cuts keep invariants (d=4)"
      (qc_points ~n:15 ~d:4)
      (fun pts ->
        let t = build_dd ~bound:2. ~dim:4 (List.map (fun p -> (p, 1.)) pts) in
        Dd.check_invariants t;
        true);
    qcheck_case ~count:30 "support function is monotone under cuts"
      QCheck.(pair (qc_points ~n:10 ~d:3) (qc_point 3))
      (fun (pts, q) ->
        let t = Dd.create ~bound:2. ~dim:3 () in
        let prev = ref infinity in
        List.for_all
          (fun p ->
            ignore (Dd.add_constraint t ~normal:p ~offset:1.);
            let _, m = Dd.max_dot t q in
            let ok = m <= !prev +. geom_eps in
            prev := m;
            ok)
          pts);
    Alcotest.test_case "SWAR popcount: edge words" `Quick test_popcount_edges;
    qcheck_case ~count:2000 "SWAR popcount = naive bit count" arb_word
      (fun x -> Dd.popcount x = naive_popcount x);
    Alcotest.test_case "invariants past 62 constraints" `Quick
      test_invariants_past_62_constraints;
    Alcotest.test_case "GeoGreedy golden, d=3..9" `Quick test_geo_greedy_golden;
  ]
