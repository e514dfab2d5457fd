(* The observability layer's two load-bearing promises, verified in-process:

   (1) counters are bit-identical at every pool width — the pool's
       determinism contract (chunk boundaries are a pure function of the
       range, never of the worker count) extends to the metrics because the
       instrumented loops flush per-chunk/per-item tallies, and integer
       summation over per-domain cells is exact and commutative;

   (2) disabled observability is invisible: same algorithm results, empty
       registry, no files, no timing.

   Plus unit coverage of the metric primitives themselves, with a fake
   clock driving the span tree so durations are deterministic. *)

open Testutil
module Obs = Kregret_obs
module Pool = Kregret_parallel.Pool
module Dataset = Kregret_dataset.Dataset
module Generator = Kregret_dataset.Generator
module Rng = Kregret_dataset.Rng
module Happy = Kregret_happy.Happy
module Geo_greedy = Kregret.Geo_greedy

(* a workload crossing every instrumented layer: generator -> skyline ->
   happy (cut-box vertices, subjugation probes) -> GeoGreedy (dd vertex
   enumeration, pool regions) *)
let workload () =
  let ds = Generator.anti_correlated (Rng.create 41) ~n:120 ~d:4 in
  let happy = Happy.of_dataset ds in
  let r = Geo_greedy.run ~points:happy.Dataset.points ~k:6 () in
  (r.Geo_greedy.order, r.Geo_greedy.mrr)

let with_jobs jobs f =
  let saved = Pool.get_jobs () in
  Pool.set_jobs jobs;
  Fun.protect ~finally:(fun () -> Pool.set_jobs saved) f

(* enable recording for the thunk only, and leave a clean registry behind so
   later suites (and earlier interned library metrics) see no residue *)
let with_enabled f =
  Obs.Registry.reset ();
  Obs.Control.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.Control.set_enabled false;
      Obs.Registry.reset ())
    f

(* --- cross-width bit-identity --------------------------------------------- *)

let test_counters_width_invariant () =
  let run jobs =
    with_jobs jobs (fun () ->
        with_enabled (fun () ->
            let result = workload () in
            (result, Obs.Registry.counters ())))
  in
  let r1, c1 = run 1 in
  let r2, c2 = run 2 in
  let r4, c4 = run 4 in
  (* the workload itself is width-invariant ... *)
  Alcotest.(check (pair (list int) (float 1e-12))) "results jobs 1 = 2" r1 r2;
  Alcotest.(check (pair (list int) (float 1e-12))) "results jobs 1 = 4" r1 r4;
  (* ... and so is every counter, name for name and value for value *)
  List.iter
    (fun name ->
      Alcotest.(check bool)
        (Printf.sprintf "counter %s recorded" name)
        true (List.mem_assoc name c1))
    [
      "skyline.points_scanned";
      "skyline.dominance_tests";
      "happy.candidates";
      "happy.subjugation_probes";
      "dd.vertices_created";
      "geo_greedy.runs";
      "geo_greedy.rounds";
      "pool.regions";
    ];
  Alcotest.(check (list (pair string int))) "counters jobs 1 = 2" c1 c2;
  Alcotest.(check (list (pair string int))) "counters jobs 1 = 4" c1 c4

(* --- disabled semantics ----------------------------------------------------- *)

let test_disabled_is_invisible () =
  (* reference run with recording on *)
  let enabled_result = with_enabled (fun () -> workload ()) in
  (* disabled run: same answer, and the registry stays empty even though the
     instrumented code paths all executed *)
  Obs.Registry.reset ();
  Alcotest.(check bool) "recording off" false (Obs.Control.enabled ());
  let disabled_result = workload () in
  Alcotest.(check (pair (list int) (float 1e-12)))
    "disabled run returns the same answer" enabled_result disabled_result;
  Alcotest.(check (list (pair string int))) "no counters" []
    (Obs.Registry.counters ());
  Alcotest.(check int) "no gauges" 0 (List.length (Obs.Registry.gauges ()));
  Alcotest.(check int) "no histograms" 0
    (List.length (Obs.Registry.histograms ()));
  Alcotest.(check int) "no spans" 0 (List.length (Obs.Span.snapshot ()))

(* --- primitive units -------------------------------------------------------- *)

let test_counter_unit () =
  with_enabled (fun () ->
      let c = Obs.Registry.counter "test.obs.counter" ~help:"unit test" in
      Alcotest.(check int) "starts at 0" 0 (Obs.Counter.value c);
      Obs.Counter.incr c;
      Obs.Counter.add c 41;
      Alcotest.(check int) "accumulates" 42 (Obs.Counter.value c);
      Alcotest.(check bool) "touched" true (Obs.Counter.touched c);
      Alcotest.(check bool) "snapshot carries it" true
        (List.mem_assoc "test.obs.counter" (Obs.Registry.counters ()));
      (* interning is idempotent: same name, same cell *)
      let c' = Obs.Registry.counter "test.obs.counter" in
      Obs.Counter.incr c';
      Alcotest.(check int) "same cell through the registry" 43
        (Obs.Counter.value c);
      Obs.Counter.reset c;
      Alcotest.(check int) "reset zeroes" 0 (Obs.Counter.value c);
      Alcotest.(check bool) "zeroed counter leaves the snapshot" false
        (List.mem_assoc "test.obs.counter" (Obs.Registry.counters ())))

let test_counter_noop_when_disabled () =
  Obs.Registry.reset ();
  let c = Obs.Registry.counter "test.obs.disabled_counter" ~help:"unit test" in
  Obs.Counter.add c 7;
  Obs.Counter.incr c;
  Alcotest.(check int) "adds are dropped" 0 (Obs.Counter.value c);
  Alcotest.(check bool) "never touched" false (Obs.Counter.touched c)

let test_registry_type_clash () =
  let _c = Obs.Registry.counter "test.obs.clash" ~help:"unit test" in
  Alcotest.(check bool) "reusing a counter name as a gauge raises" true
    (match Obs.Registry.gauge "test.obs.clash" with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_gauge_unit () =
  with_enabled (fun () ->
      let g = Obs.Registry.gauge "test.obs.gauge" ~help:"unit test" in
      check_float "unset reads 0" 0. (Obs.Gauge.value g);
      Obs.Gauge.set g 2.5;
      Obs.Gauge.set_int g 7;
      check_float "last write wins" 7. (Obs.Gauge.value g);
      Alcotest.(check bool) "snapshot carries it" true
        (List.mem_assoc "test.obs.gauge" (Obs.Registry.gauges ())))

let test_histogram_unit () =
  with_enabled (fun () ->
      let h =
        Obs.Registry.histogram "test.obs.hist"
          ~buckets:[| 1.; 10.; 100. |] ~help:"unit test"
      in
      List.iter (Obs.Histogram.observe h) [ 0.5; 5.; 5.; 50.; 5000. ];
      let s = Obs.Histogram.snapshot h in
      Alcotest.(check int) "count" 5 s.Obs.Histogram.count;
      check_float "sum" 5060.5 s.Obs.Histogram.sum;
      (* bucket layout: (le, n) pairs plus the +inf overflow *)
      Alcotest.(check (list (pair (float 0.) int)))
        "bucket counts"
        [ (1., 1); (10., 2); (100., 1); (infinity, 1) ]
        s.Obs.Histogram.buckets)

let test_span_tree_with_fake_clock () =
  (* a manually advanced clock: every span gets exact, deterministic
     durations, so the tree's seconds can be checked to the bit *)
  let t = ref 0. in
  Obs.Control.set_clock (fun () -> !t);
  Fun.protect
    ~finally:(fun () -> Obs.Control.set_clock Sys.time)
    (fun () ->
      with_enabled (fun () ->
          Obs.Span.with_ "outer" (fun () ->
              t := !t +. 1.;
              Obs.Span.with_ "inner" (fun () -> t := !t +. 0.25);
              Obs.Span.with_ "inner" (fun () -> t := !t +. 0.25));
          (* same name at the root aggregates rather than duplicating *)
          Obs.Span.with_ "outer" (fun () -> t := !t +. 0.5);
          match Obs.Span.snapshot () with
          | [ outer ] ->
              Alcotest.(check string) "root name" "outer"
                outer.Obs.Span.name;
              Alcotest.(check int) "root count" 2 outer.Obs.Span.count;
              check_float "root seconds" 2. outer.Obs.Span.seconds;
              (match outer.Obs.Span.children with
              | [ inner ] ->
                  Alcotest.(check string) "child name" "inner"
                    inner.Obs.Span.name;
                  Alcotest.(check int) "child aggregates" 2
                    inner.Obs.Span.count;
                  check_float "child seconds" 0.5 inner.Obs.Span.seconds
              | l ->
                  Alcotest.failf "expected one aggregated child, got %d"
                    (List.length l))
          | l -> Alcotest.failf "expected one root span, got %d" (List.length l)))

let test_span_closes_on_exception () =
  let t = ref 0. in
  Obs.Control.set_clock (fun () -> !t);
  Fun.protect
    ~finally:(fun () -> Obs.Control.set_clock Sys.time)
    (fun () ->
      with_enabled (fun () ->
          (try
             Obs.Span.with_ "failing" (fun () ->
                 t := !t +. 3.;
                 failwith "boom")
           with Failure _ -> ());
          match Obs.Span.snapshot () with
          | [ s ] ->
              Alcotest.(check string) "span recorded" "failing"
                s.Obs.Span.name;
              check_float "duration up to the raise" 3. s.Obs.Span.seconds
          | l -> Alcotest.failf "expected one span, got %d" (List.length l)))

(* the systhreads of one domain share its domain-local state, so a stack
   of open spans kept there made a span opened on thread B while thread A
   held one open come out as A's child *)
let test_span_stack_per_thread () =
  with_enabled (fun () ->
      let a_open = Semaphore.Binary.make false
      and b_done = Semaphore.Binary.make false in
      let a =
        Thread.create
          (fun () ->
            Obs.Span.with_ "thread_a" (fun () ->
                Semaphore.Binary.release a_open;
                Semaphore.Binary.acquire b_done))
          ()
      in
      Semaphore.Binary.acquire a_open;
      let b = Thread.create (fun () -> Obs.Span.with_ "thread_b" ignore) () in
      Thread.join b;
      Semaphore.Binary.release b_done;
      Thread.join a;
      Alcotest.(check (list (pair string int)))
        "each thread's span is a root, with no children"
        [ ("thread_a", 0); ("thread_b", 0) ]
        (List.map
           (fun s -> (s.Obs.Span.name, List.length s.Obs.Span.children))
           (Obs.Span.snapshot ())))

(* a wall clock that steps backwards (NTP slew, manual reset) must not
   surface as a decreasing reading: the monotonic wrapper holds the
   high-water mark until real time catches back up *)
let test_monotonic_of_backwards_clock () =
  let t = ref 100. in
  let clock = Obs.Control.monotonic_of (fun () -> !t) in
  Alcotest.(check (float 0.)) "first reading" 100. (clock ());
  t := 105.;
  Alcotest.(check (float 0.)) "advances" 105. (clock ());
  t := 90.;
  Alcotest.(check (float 0.)) "backwards step held" 105. (clock ());
  t := 104.9;
  Alcotest.(check (float 0.)) "still held below the mark" 105. (clock ());
  t := 106.;
  Alcotest.(check (float 0.)) "resumes once caught up" 106. (clock ());
  (* concurrent readers only ever see non-decreasing values *)
  let t2 = ref 0. in
  let clock2 = Obs.Control.monotonic_of (fun () -> !t2) in
  let violations = Atomic.make 0 in
  let threads =
    Array.init 4 (fun _ ->
        Thread.create
          (fun () ->
            let prev = ref neg_infinity in
            for _ = 1 to 10_000 do
              let v = clock2 () in
              if v < !prev then Atomic.incr violations;
              prev := v
            done)
          ())
  in
  (* a jittery base: mostly forward, occasional steps back *)
  for i = 1 to 1_000 do
    t2 := float_of_int i +. if i mod 7 = 0 then -3.5 else 0.;
    Thread.yield ()
  done;
  Array.iter Thread.join threads;
  Alcotest.(check int) "no thread ever saw time go backwards" 0
    (Atomic.get violations)

let suite =
  [
    Alcotest.test_case "counters bit-identical at jobs 1/2/4" `Quick
      test_counters_width_invariant;
    Alcotest.test_case "disabled observability is invisible" `Quick
      test_disabled_is_invisible;
    Alcotest.test_case "counter: accumulate / intern / reset" `Quick
      test_counter_unit;
    Alcotest.test_case "counter: no-op while disabled" `Quick
      test_counter_noop_when_disabled;
    Alcotest.test_case "registry: type clash rejected" `Quick
      test_registry_type_clash;
    Alcotest.test_case "gauge: last write wins" `Quick test_gauge_unit;
    Alcotest.test_case "histogram: buckets and overflow" `Quick
      test_histogram_unit;
    Alcotest.test_case "span: tree, aggregation, fake clock" `Quick
      test_span_tree_with_fake_clock;
    Alcotest.test_case "span: closes on exception" `Quick
      test_span_closes_on_exception;
    Alcotest.test_case "span: one stack per thread" `Quick
      test_span_stack_per_thread;
    Alcotest.test_case "control: monotonic wrapper survives backwards clock"
      `Quick test_monotonic_of_backwards_clock;
  ]
