(* The parallel substrate: pool mechanics (exception propagation, nested-use
   rejection, deterministic reduction order) and the parallel ≡ sequential
   contract for every hot path that fans out over the pool — skyline
   indices, happy sets, GeoGreedy insertion order + mrr, Greedy argmins and
   Monte-Carlo mrr estimates must be bit-identical for jobs ∈ {1, 2, 4}. *)

open Testutil
module Pool = Kregret_parallel.Pool
module Dataset = Kregret_dataset.Dataset
module Generator = Kregret_dataset.Generator
module Rng = Kregret_dataset.Rng
module Skyline = Kregret_skyline.Skyline
module Happy = Kregret_happy.Happy
module Geo_greedy = Kregret.Geo_greedy
module Greedy_lp = Kregret.Greedy_lp
module Mrr = Kregret.Mrr
module Obs = Kregret_obs

(* Run [f] under a global pool of width [jobs], restoring the previous
   request afterwards so suites do not leak pool configuration. *)
let with_jobs jobs f =
  let before = Pool.get_jobs () in
  Pool.set_jobs jobs;
  Fun.protect ~finally:(fun () -> Pool.set_jobs before) f

let jobs_under_test = [ 1; 2; 4 ]

(* ---- pool mechanics ------------------------------------------------------ *)

let test_parallel_for_covers_range () =
  let pool = Pool.create ~jobs:4 in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  let n = 1000 in
  let hits = Array.make n 0 in
  Pool.parallel_for ~pool ~chunk_size:7 ~lo:0 ~hi:n (fun i ->
      hits.(i) <- hits.(i) + 1);
  Alcotest.(check bool) "each index exactly once" true
    (Array.for_all (fun h -> h = 1) hits);
  (* empty and singleton ranges *)
  Pool.parallel_for ~pool ~lo:5 ~hi:5 (fun _ -> assert false);
  let got = ref (-1) in
  Pool.parallel_for ~pool ~lo:41 ~hi:42 (fun i -> got := i);
  Alcotest.(check int) "singleton" 41 !got

let test_map_reduce_left_to_right () =
  (* string concatenation is non-associative-with-init: the fold order is
     observable. Every pool width must produce the sequential order. *)
  let expect =
    String.concat "" (List.init 20 (fun c -> Printf.sprintf "[%d]" c))
  in
  List.iter
    (fun jobs ->
      let pool = Pool.create ~jobs in
      Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
      let got =
        Pool.map_reduce ~pool ~chunk_size:1 ~lo:0 ~hi:20
          ~map:(fun a _ -> Printf.sprintf "[%d]" a)
          ~reduce:( ^ ) ""
      in
      Alcotest.(check string)
        (Printf.sprintf "chunk order at jobs=%d" jobs)
        expect got)
    jobs_under_test

let test_exception_propagation () =
  let pool = Pool.create ~jobs:3 in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  let raised =
    try
      Pool.parallel_for ~pool ~chunk_size:1 ~lo:0 ~hi:100 (fun i ->
          if i = 37 then failwith "boom-37");
      None
    with Failure msg -> Some msg
  in
  Alcotest.(check (option string)) "failure reaches caller" (Some "boom-37")
    raised;
  (* the pool survives a failed region *)
  let acc = Atomic.make 0 in
  Pool.parallel_for ~pool ~lo:0 ~hi:10 (fun i ->
      ignore (Atomic.fetch_and_add acc i));
  Alcotest.(check int) "pool usable after failure" 45 (Atomic.get acc)

let test_nested_use_rejected () =
  let pool = Pool.create ~jobs:2 in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  let rejected =
    try
      Pool.parallel_for ~pool ~chunk_size:1 ~lo:0 ~hi:8 (fun _ ->
          Pool.parallel_for ~pool ~chunk_size:1 ~lo:0 ~hi:8 (fun _ -> ()));
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "nested region rejected" true rejected;
  (* ... and the pool still works afterwards *)
  let count = Atomic.make 0 in
  Pool.parallel_for ~pool ~lo:0 ~hi:16 (fun _ ->
      ignore (Atomic.fetch_and_add count 1));
  Alcotest.(check int) "pool usable after rejection" 16 (Atomic.get count)

(* Two threads, one pool: a region opened while another thread's region
   runs is not nested — it waits its turn and gets its usual result. The
   bodies sleep, releasing the runtime lock mid-region, and the second
   thread starts only once the first is inside its region. *)
let test_concurrent_regions_from_threads () =
  let pool = Pool.create ~jobs:2 in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  let entered = Atomic.make false in
  let sums = Array.make 2 (-1) in
  let region slot () =
    sums.(slot) <-
      Pool.map_reduce ~pool ~chunk_size:1 ~lo:0 ~hi:8
        ~map:(fun a b ->
          Atomic.set entered true;
          Thread.delay 0.005;
          let s = ref 0 in
          for i = a to b - 1 do
            s := !s + i + (100 * slot)
          done;
          !s)
        ~reduce:( + ) 0
  in
  let first = Thread.create (region 0) () in
  while not (Atomic.get entered) do
    Thread.yield ()
  done;
  let second = Thread.create (region 1) () in
  Thread.join first;
  Thread.join second;
  Alcotest.(check (array int)) "both regions finish with their sums"
    [| 28; 828 |] sums

let test_shutdown_rejects_use () =
  let pool = Pool.create ~jobs:2 in
  Pool.shutdown pool;
  Pool.shutdown pool (* idempotent *);
  let rejected =
    try
      Pool.parallel_for ~pool ~chunk_size:1 ~lo:0 ~hi:8 (fun _ -> ());
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "use after shutdown rejected" true rejected

(* ---- parallel ≡ sequential determinism ----------------------------------- *)

let gen_dataset name ~n ~d ~seed = Generator.by_name name (Rng.create seed) ~n ~d

(* qcheck driver: a small (name, n, d, seed) universe *)
let qc_instance =
  QCheck.make
    ~print:(fun (name, n, d, seed) ->
      Printf.sprintf "%s n=%d d=%d seed=%d" name n d seed)
    QCheck.Gen.(
      let* name = oneofl [ "independent"; "correlated"; "anti_correlated" ] in
      let* n = int_range 20 120 in
      let* d = int_range 2 5 in
      let* seed = int_range 0 10_000 in
      return (name, n, d, seed))

let across_jobs compute equal pp (name, n, d, seed) =
  let results =
    List.map (fun j -> (j, with_jobs j (fun () -> compute ~name ~n ~d ~seed)))
      jobs_under_test
  in
  match results with
  | [] | [ _ ] -> true
  | (j0, r0) :: rest ->
      List.for_all
        (fun (j, r) ->
          if equal r0 r then true
          else
            QCheck.Test.fail_reportf
              "jobs=%d and jobs=%d disagree on %s n=%d d=%d seed=%d:@.%s@.vs@.%s"
              j0 j name n d seed (pp r0) (pp r))
        rest

let pp_int_array a =
  String.concat "," (List.map string_of_int (Array.to_list a))

let prop_skyline_deterministic inst =
  across_jobs
    (fun ~name ~n ~d ~seed ->
      let ds = gen_dataset name ~n ~d ~seed in
      ( Skyline.naive ds.Dataset.points,
        Skyline.sfs ds.Dataset.points ))
    (fun (a1, s1) (a2, s2) -> a1 = a2 && s1 = s2)
    (fun (a, s) ->
      Printf.sprintf "naive=[%s] sfs=[%s]" (pp_int_array a) (pp_int_array s))
    inst

(* The qcheck instances above stay below one SFS block. This one spans
   several blocks and multi-chunk regions: anti-correlated rows with exact
   duplicates copied over other rows, plus a dominated row whose coordinate
   sum rounds to its (higher-id) dominator's. *)
let test_sfs_multi_block_width_invariant () =
  let n = 3_000 and d = 5 in
  let rng = Rng.create 2014 in
  let points =
    Array.map Array.copy
      (Generator.anti_correlated rng ~n ~d).Dataset.points
  in
  for _ = 1 to 150 do
    let src = Rng.int rng n and dst = Rng.int rng n in
    points.(dst) <- Array.copy points.(src)
  done;
  points.(1_000) <- [| 1.0; 1e-17; 0.; 0.; 0. |];
  points.(2_500) <- [| 1.0; 2e-17; 0.; 0.; 0. |];
  let naive = with_jobs 1 (fun () -> Skyline.naive points) in
  Alcotest.(check bool) "rounding-tied dominee cut" false
    (Array.mem 1_000 naive);
  let run jobs =
    with_jobs jobs (fun () ->
        Obs.Registry.reset ();
        Obs.Control.set_enabled true;
        Fun.protect
          ~finally:(fun () ->
            Obs.Control.set_enabled false;
            Obs.Registry.reset ())
          (fun () ->
            let sky = Skyline.sfs points in
            let counters =
              List.filter
                (fun (name, _) -> String.starts_with ~prefix:"skyline." name)
                (Obs.Registry.counters ())
            in
            (sky, counters)))
  in
  let sky1, c1 = run 1 in
  Alcotest.(check int) "three skyline counters" 3 (List.length c1);
  Alcotest.(check (list (pair string int)))
    "points scanned and survivors"
    [ ("skyline.points_scanned", n); ("skyline.survivors", Array.length naive) ]
    (List.filter (fun (name, _) -> name <> "skyline.dominance_tests") c1);
  List.iter
    (fun jobs ->
      let sky, c = if jobs = 1 then (sky1, c1) else run jobs in
      Alcotest.(check (array int))
        (Printf.sprintf "sfs = naive at jobs=%d" jobs)
        naive sky;
      Alcotest.(check (list (pair string int)))
        (Printf.sprintf "counters jobs=1 = jobs=%d" jobs)
        c1 c)
    jobs_under_test

let prop_happy_deterministic inst =
  across_jobs
    (fun ~name ~n ~d ~seed ->
      let ds = gen_dataset name ~n ~d ~seed in
      let sky = Skyline.of_dataset ds in
      Happy.happy_points sky.Dataset.points)
    ( = )
    (fun a -> Printf.sprintf "happy=[%s]" (pp_int_array a))
    inst

let prop_geo_greedy_deterministic inst =
  across_jobs
    (fun ~name ~n ~d ~seed ->
      let ds = gen_dataset name ~n ~d ~seed in
      let sky = Skyline.of_dataset ds in
      let r = Geo_greedy.run ~points:sky.Dataset.points ~k:(min 8 n) () in
      (r.Geo_greedy.order, r.Geo_greedy.mrr, r.Geo_greedy.rescans))
    ( = )
    (fun (order, mrr, rescans) ->
      Printf.sprintf "order=[%s] mrr=%.17g rescans=%d"
        (String.concat "," (List.map string_of_int order))
        mrr rescans)
    inst

let prop_greedy_lp_deterministic inst =
  across_jobs
    (fun ~name ~n ~d ~seed ->
      (* small n: one LP per candidate per iteration *)
      let n = min n 40 in
      let ds = gen_dataset name ~n ~d ~seed in
      let sky = Skyline.of_dataset ds in
      let r = Greedy_lp.run ~points:sky.Dataset.points ~k:5 () in
      (r.Greedy_lp.order, r.Greedy_lp.mrr, r.Greedy_lp.lp_calls))
    ( = )
    (fun (order, mrr, calls) ->
      Printf.sprintf "order=[%s] mrr=%.17g lp_calls=%d"
        (String.concat "," (List.map string_of_int order))
        mrr calls)
    inst

let prop_sampled_mrr_deterministic inst =
  across_jobs
    (fun ~name ~n ~d ~seed ->
      let ds = gen_dataset name ~n ~d ~seed in
      let data = Dataset.to_list ds in
      let selected =
        match List.filteri (fun i _ -> i mod 7 = 0) data with
        | [] -> [ List.hd data ]
        | sel -> sel
      in
      (* an off-block-multiple budget exercises the tail block *)
      Mrr.sampled ~rng:(Rng.create seed) ~samples:333 ~data ~selected)
    (fun (a : float) b -> Float.equal a b)
    (fun m -> Printf.sprintf "%.17g" m)
    inst

(* ---- adaptive chunk granularity (ISSUE 6) -------------------------------- *)

let test_chunk_plan () =
  (* explicit chunk_size passes through verbatim *)
  Alcotest.(check int) "explicit verbatim" 7
    (Pool.chunk_plan ~chunk_size:7 ~n:1000 ());
  (* tiny total work inlines as a single chunk *)
  Alcotest.(check int) "small region inlines" 10
    (Pool.chunk_plan ~n:10 ());
  Alcotest.(check int) "cheap items inline" 40_000
    (Pool.chunk_plan ~cost:1. ~n:40_000 ());
  (* expensive items split fine, but never below ceil(n / 64) per chunk *)
  Alcotest.(check int) "expensive items floor at the 64-chunk cap" 16
    (Pool.chunk_plan ~cost:1e6 ~n:1000 ());
  (* the 64-chunk cap bounds the chunk count on big cheap ranges *)
  let n = 1_000_000 in
  let c = Pool.chunk_plan ~cost:2. ~n () in
  let chunks = (n + c - 1) / c in
  Alcotest.(check bool)
    (Printf.sprintf "at most 64 chunks (got %d)" chunks)
    true (chunks <= 64);
  (* degenerate hints are clamped, not fatal *)
  Alcotest.(check bool) "nan cost tolerated" true
    (Pool.chunk_plan ~cost:nan ~n:100 () >= 1);
  Alcotest.(check bool) "negative cost tolerated" true
    (Pool.chunk_plan ~cost:(-5.) ~n:100 () >= 1);
  let rejects f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "n = 0 rejected" true
    (rejects (fun () -> Pool.chunk_plan ~n:0 ()));
  Alcotest.(check bool) "chunk_size = 0 rejected" true
    (rejects (fun () -> Pool.chunk_plan ~chunk_size:0 ~n:10 ()))

(* the plan — and with it any non-associative fold — must not move when the
   pool width does, whatever cost hint the caller supplies *)
let qc_cost_instance =
  QCheck.make
    ~print:(fun (n, cost) -> Printf.sprintf "n=%d cost=%g" n cost)
    QCheck.Gen.(
      let* n = int_range 1 5_000 in
      let* cost = float_range 0.5 1e6 in
      return (n, cost))

let prop_map_reduce_cost_invariant (n, cost) =
  let compute () =
    Pool.map_reduce ~cost ~lo:0 ~hi:n
      ~map:(fun a b -> Printf.sprintf "[%d,%d)" a b)
      ~reduce:( ^ ) ""
  in
  let results =
    List.map (fun j -> (j, with_jobs j compute)) jobs_under_test
  in
  match results with
  | [] -> true
  | (j0, r0) :: rest ->
      List.for_all
        (fun (j, r) ->
          r = r0
          || QCheck.Test.fail_reportf
               "chunking at jobs=%d and jobs=%d disagree (n=%d cost=%g)" j0 j
               n cost)
        rest

(* ---- Dd.create guard (satellite) ----------------------------------------- *)

let test_dd_dim_guard () =
  let module Dd = Kregret_hull.Dd in
  Alcotest.(check int) "cap exposed" 16 Dd.max_dim;
  (* boundary accepted: seeds 2^16 corners, so probe the refusal only *)
  List.iter
    (fun dim ->
      let rejected =
        try
          ignore (Dd.create ~dim ());
          false
        with Invalid_argument msg ->
          Alcotest.(check bool) "message names the 2^d blowup" true
            (String.length msg > 0
            && String.sub msg 0 9 = "Dd.create");
          true
      in
      Alcotest.(check bool)
        (Printf.sprintf "dim %d refused" dim)
        true rejected)
    [ 0; 17; 20 ]

let suite =
  [
    Alcotest.test_case "parallel_for covers the range" `Quick
      test_parallel_for_covers_range;
    Alcotest.test_case "map_reduce folds left to right" `Quick
      test_map_reduce_left_to_right;
    Alcotest.test_case "exceptions propagate to the caller" `Quick
      test_exception_propagation;
    Alcotest.test_case "nested regions are rejected" `Quick
      test_nested_use_rejected;
    Alcotest.test_case "regions from two threads both run" `Quick
      test_concurrent_regions_from_threads;
    Alcotest.test_case "use after shutdown is rejected" `Quick
      test_shutdown_rejects_use;
    Alcotest.test_case "Dd.create refuses dim > 16" `Quick test_dd_dim_guard;
    Alcotest.test_case "chunk_plan granularity model" `Quick test_chunk_plan;
    qcheck_case ~count:40 "chunk boundaries ignore the pool width"
      qc_cost_instance prop_map_reduce_cost_invariant;
    qcheck_case ~count:12 "skyline identical across jobs 1/2/4" qc_instance
      prop_skyline_deterministic;
    Alcotest.test_case "sfs = naive across jobs 1/2/4 over several blocks"
      `Quick test_sfs_multi_block_width_invariant;
    qcheck_case ~count:12 "happy set identical across jobs 1/2/4" qc_instance
      prop_happy_deterministic;
    qcheck_case ~count:12 "geo-greedy order+mrr identical across jobs 1/2/4"
      qc_instance prop_geo_greedy_deterministic;
    qcheck_case ~count:6 "greedy-lp order+mrr identical across jobs 1/2/4"
      qc_instance prop_greedy_lp_deterministic;
    qcheck_case ~count:12 "sampled mrr bit-identical across jobs 1/2/4"
      qc_instance prop_sampled_mrr_deterministic;
  ]
