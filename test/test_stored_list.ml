(* Dedicated StoredList coverage (satellite of the fuzzing PR): the prefix
   property against fresh GeoGreedy runs, clamping when k exceeds the
   materialized list / the happy-point count, and idempotence of repeated
   queries. test_regret.ml already spot-checks save/load; this suite pins
   the query-phase semantics the paper sells ("O(k) per query"). *)

open Testutil
module Dataset = Kregret_dataset.Dataset
module Generator = Kregret_dataset.Generator
module Rng = Kregret_dataset.Rng
module Geo_greedy = Kregret.Geo_greedy
module Stored_list = Kregret.Stored_list
module Happy = Kregret_happy.Happy

let anti n d seed = Generator.anti_correlated (Rng.create seed) ~n ~d

let prefix_of ~prefix full =
  let rec go p f =
    match (p, f) with
    | [], _ -> true
    | _, [] -> false
    | x :: p', y :: f' -> x = y && go p' f'
  in
  go prefix full

let test_prefix_property () =
  (* answer k = first k of the full materialization = GeoGreedy's own order
     at that k, for every k up to the list length *)
  let ds = anti 80 4 11 in
  let happy = Happy.of_dataset ds in
  let points = happy.Dataset.points in
  let sl = Stored_list.preprocess points in
  let full = Stored_list.order sl in
  for k = 1 to Stored_list.length sl do
    let ans = Stored_list.query sl ~k in
    Alcotest.(check int)
      (Printf.sprintf "k=%d answer length" k)
      (min k (Stored_list.length sl))
      (List.length ans);
    Alcotest.(check bool)
      (Printf.sprintf "k=%d answer is a prefix of the list" k)
      true
      (prefix_of ~prefix:ans full);
    let direct = Geo_greedy.run ~points ~k () in
    Alcotest.(check (list int))
      (Printf.sprintf "k=%d matches a fresh GeoGreedy run" k)
      direct.Geo_greedy.order ans;
    check_float
      (Printf.sprintf "k=%d mrr matches" k)
      direct.Geo_greedy.mrr
      (Stored_list.mrr_at sl ~k)
  done

let test_clamp_beyond_length () =
  (* k past the materialized length returns the whole list, with mrr equal
     to the final prefix's — no exception, no padding *)
  let ds = anti 40 3 7 in
  let happy = Happy.of_dataset ds in
  let points = happy.Dataset.points in
  let sl = Stored_list.preprocess points in
  let len = Stored_list.length sl in
  Alcotest.(check bool) "list no longer than candidates" true
    (len <= Array.length points);
  let whole = Stored_list.query sl ~k:(len + 50) in
  Alcotest.(check (list int)) "k > length returns the whole list"
    (Stored_list.order sl) whole;
  check_float "mrr clamps with it"
    (Stored_list.mrr_at sl ~k:len)
    (Stored_list.mrr_at sl ~k:(len + 50))

let test_max_length_truncation () =
  (* a deployment that knows its largest k can stop materializing there;
     prefixes below the cut are unchanged *)
  let ds = anti 60 4 13 in
  let happy = Happy.of_dataset ds in
  let points = happy.Dataset.points in
  let full = Stored_list.preprocess points in
  let cut = 5 in
  let truncated = Stored_list.preprocess ~max_length:cut points in
  Alcotest.(check bool) "truncated list is short" true
    (Stored_list.length truncated <= cut);
  Alcotest.(check (list int)) "truncation preserves the prefix"
    (Stored_list.query full ~k:(Stored_list.length truncated))
    (Stored_list.order truncated)

let test_query_idempotent () =
  (* queries are pure reads: asking twice (and interleaving other ks) gives
     bit-identical answers *)
  let ds = anti 50 3 17 in
  let happy = Happy.of_dataset ds in
  let sl = Stored_list.preprocess happy.Dataset.points in
  let k = min 4 (Stored_list.length sl) in
  let a = Stored_list.query sl ~k in
  let _noise = Stored_list.query sl ~k:1 in
  let _noise2 = Stored_list.query sl ~k:(Stored_list.length sl) in
  let b = Stored_list.query sl ~k in
  Alcotest.(check (list int)) "same answer on repeat" a b;
  check_float ~eps:0. "same mrr on repeat"
    (Stored_list.mrr_at sl ~k)
    (Stored_list.mrr_at sl ~k)

let test_singleton () =
  let sl = Stored_list.preprocess [| [| 1.0; 1.0 |] |] in
  Alcotest.(check (list int)) "singleton list" [ 0 ] (Stored_list.order sl);
  check_float "mrr 0 immediately" 0. (Stored_list.mrr_at sl ~k:1)

(* ---- load failure modes (regressions for the defensive parser) ---------- *)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let with_tmp lines f =
  let path = Filename.temp_file "kregret_sl" ".list" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let oc = open_out path in
      List.iter (fun l -> output_string oc (l ^ "\n")) lines;
      close_out oc;
      f path)

let expect_load_failure ~what ~needle points lines =
  with_tmp lines (fun path ->
      match Stored_list.load ~points path with
      | _ -> Alcotest.failf "%s: load unexpectedly succeeded" what
      | exception Failure msg ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: %S names the failure (%S)" what msg needle)
            true
            (contains ~needle msg))

(* a tiny candidate set plus the exact lines [save] emits for it *)
let saved_lines () =
  let points = (Happy.of_dataset (anti 30 3 23)).Dataset.points in
  let sl = Stored_list.preprocess points in
  let lines =
    with_tmp [] (fun path ->
        Stored_list.save sl ~points path;
        let ic = open_in path in
        let out = ref [] in
        (try
           while true do
             out := input_line ic :: !out
           done
         with End_of_file -> close_in ic);
        List.rev !out)
  in
  (points, lines)

let test_load_roundtrip () =
  let points, lines = saved_lines () in
  with_tmp lines (fun path ->
      let sl = Stored_list.load ~points path in
      let fresh = Stored_list.preprocess points in
      Alcotest.(check (list int))
        "round-trip preserves the order" (Stored_list.order fresh)
        (Stored_list.order sl))

let test_load_header_failures () =
  let points, lines = saved_lines () in
  let body = List.tl lines in
  (* the three header modes must produce three *different* diagnoses *)
  expect_load_failure ~what:"wrong count" ~needle:"candidate count mismatch"
    points
    (Printf.sprintf "# kregret-stored-list v1 n=%d fp=0123456789abcdef"
       (Array.length points + 1)
    :: body);
  expect_load_failure ~what:"wrong version" ~needle:"unsupported format version"
    points
    (Printf.sprintf "# kregret-stored-list v2 n=%d fp=0123456789abcdef"
       (Array.length points)
    :: body);
  expect_load_failure ~what:"wrong fingerprint" ~needle:"fingerprint mismatch"
    points
    (Printf.sprintf "# kregret-stored-list v1 n=%d fp=0123456789abcdef"
       (Array.length points)
    :: body);
  expect_load_failure ~what:"not a list" ~needle:"not a stored-list file"
    points ("x,y,z" :: body);
  expect_load_failure ~what:"empty file" ~needle:"empty file" points []

let test_load_body_failures () =
  let points, lines = saved_lines () in
  let header = List.hd lines and body = List.tl lines in
  (* the old parser treated a truncated "<index>" line as end-of-input and
     silently returned only the entries before it — this is the satellite's
     headline regression *)
  expect_load_failure ~what:"truncated line" ~needle:"truncated entry" points
    ((header :: body) @ [ "5" ]);
  expect_load_failure ~what:"malformed line" ~needle:"malformed entry" points
    ((header :: body) @ [ "five 0.25" ]);
  expect_load_failure ~what:"trailing garbage" ~needle:"trailing garbage"
    points
    ((header :: body) @ [ "0 0.25 junk" ]);
  expect_load_failure ~what:"index out of range" ~needle:"out of range" points
    ((header :: body) @ [ Printf.sprintf "%d 0.25" (Array.length points) ]);
  expect_load_failure ~what:"negative index" ~needle:"out of range" points
    ((header :: body) @ [ "-1 0.25" ]);
  (* Scanf's %f refuses the token "nan", so a NaN entry is rejected at the
     parse level as malformed (the explicit is_nan guard in [load] covers
     any float syntax %f does accept) *)
  expect_load_failure ~what:"NaN mrr rejected" ~needle:"entry" points
    ((header :: body) @ [ "0 nan" ])

(* ---- the lazy funnel ----------------------------------------------------- *)

module Skyline = Kregret_skyline.Skyline
module Pool = Kregret_parallel.Pool

let with_jobs j f =
  let saved = Pool.get_jobs () in
  Pool.set_jobs j;
  Fun.protect ~finally:(fun () -> Pool.set_jobs saved) f

(* a list as input rows, and every prefix regret's bits *)
let as_rows stored rows =
  match stored with
  | None -> ([], [])
  | Some s ->
      ( List.map (fun e -> rows.(e)) (Stored_list.order s),
        List.init (Stored_list.length s) (fun i ->
            Int64.bits_of_float (Stored_list.mrr_at s ~k:(i + 1))) )

(* sfs, the whole happy screen, then StoredList over the happy rows *)
let eager ?max_length points =
  let rows idx = Array.map (fun i -> points.(i)) idx in
  let sky = Skyline.sfs points in
  let happy = Array.map (fun h -> sky.(h)) (Happy.happy_points (rows sky)) in
  as_rows
    (if Array.length happy = 0 then None
     else Some (Stored_list.preprocess ?max_length (rows happy)))
    happy

let funnel_equals_eager ?max_length points =
  let want = with_jobs 1 (fun () -> eager ?max_length points) in
  List.for_all
    (fun j ->
      let f = with_jobs j (fun () -> Stored_list.funnel ?max_length points) in
      as_rows f.Stored_list.stored f.Stored_list.sky = want)
    [ 1; 2 ]

(* tie-heavy instances: coordinates on a coarse lattice or free, then
   exact copies of earlier points *)
let gen_ties =
  QCheck.Gen.(
    int_range 2 5 >>= fun d ->
    int_range 1 40 >>= fun n ->
    oneofl [ 0; 2; 3; 4; 8 ] >>= fun grid ->
    let coord =
      if grid = 0 then float_range 0.01 1.
      else int_range 1 grid >|= fun g -> float_of_int g /. float_of_int grid
    in
    list_repeat n (array_repeat d coord) >>= fun pts ->
    let pts = Array.of_list pts in
    list_repeat (n / 3) (pair (int_bound (n - 1)) (int_bound (n - 1)))
    >|= fun copies ->
    List.iter (fun (a, b) -> pts.(a) <- Array.copy pts.(b)) copies;
    pts)

let arb_ties =
  QCheck.make
    ~print:(fun a ->
      String.concat "; " (Array.to_list (Array.map Kregret_geom.Vector.to_string a)))
    gen_ties

(* [admit] may refuse any subset: the list is [preprocess] over the
   admitted points alone, as indices into the whole array, so refused
   seeds and argmaxes are retaken exactly *)
let admit_equals_subset (pts, mask, max_length) =
  let n = Array.length pts in
  let mask = Array.init n (fun i -> mask.(i mod Array.length mask)) in
  let sub = List.filter (fun i -> mask.(i)) (List.init n Fun.id) |> Array.of_list in
  let want =
    if Array.length sub = 0 then ([], [])
    else
      as_rows
        (Some (Stored_list.preprocess ?max_length (Array.map (fun i -> pts.(i)) sub)))
        sub
  in
  let asked = Array.make n 0 in
  let admit i =
    asked.(i) <- asked.(i) + 1;
    mask.(i)
  in
  let s = Stored_list.preprocess ?max_length ~admit pts in
  let got =
    as_rows (if Stored_list.length s = 0 then None else Some s) (Array.init n Fun.id)
  in
  got = want && Array.for_all (fun c -> c <= 1) asked

let arb_admit =
  QCheck.(
    triple arb_ties
      (array_of_size (Gen.int_range 1 7) bool)
      (option (int_range 1 6)))

(* every point strictly inside the unit simplex: each skyline member
   subjugates the others, so the happy set is empty and neither side
   materializes a list *)
let test_funnel_empty_happy () =
  let points = [| [| 0.2; 0.3; 0.1 |]; [| 0.3; 0.2; 0.1 |]; [| 0.1; 0.1; 0.4 |] |] in
  Alcotest.(check (array int)) "no happy point" [||]
    (Happy.happy_points points);
  let f = Stored_list.funnel points in
  Alcotest.(check int) "a 3-point skyline" 3 (Array.length f.Stored_list.sky);
  Alcotest.(check bool) "no list" true (f.Stored_list.stored = None);
  Alcotest.(check bool) "the eager composition agrees" true
    (funnel_equals_eager points)

(* anti-correlated d = 6: the funnel gives a verdict to the points the
   greedy takes and not to the thousand others *)
let test_funnel_certifies_few () =
  let points =
    (Dataset.normalize (anti 2000 6 26)).Dataset.points
  in
  let verdicts =
    recording (fun () ->
        ignore (Stored_list.funnel ~max_length:32 points);
        Kregret_obs.Counter.value (Kregret_obs.Registry.counter "happy.candidates"))
  in
  Alcotest.(check bool)
    (Printf.sprintf "%d verdicts for a 32-entry list" verdicts)
    true (verdicts <= 64);
  Alcotest.(check bool) "the eager composition's list" true
    (funnel_equals_eager ~max_length:32 points)

let suite =
  [
    Alcotest.test_case "prefix property vs fresh GeoGreedy runs" `Quick
      test_prefix_property;
    Alcotest.test_case "k beyond the list clamps" `Quick
      test_clamp_beyond_length;
    Alcotest.test_case "max_length truncates without changing the prefix"
      `Quick test_max_length_truncation;
    Alcotest.test_case "queries are idempotent" `Quick test_query_idempotent;
    Alcotest.test_case "singleton candidate set" `Quick test_singleton;
    Alcotest.test_case "save/load round-trips" `Quick test_load_roundtrip;
    Alcotest.test_case "load names each header failure mode" `Quick
      test_load_header_failures;
    Alcotest.test_case "load rejects truncated and malformed entries" `Quick
      test_load_body_failures;
    qcheck_case ~count:150 "funnel = eager composition, jobs 1/2 (ties)"
      arb_ties (fun pts -> funnel_equals_eager pts);
    qcheck_case ~count:60 "funnel = eager composition at max_length 4"
      arb_ties (fun pts -> funnel_equals_eager ~max_length:4 pts);
    qcheck_case ~count:200 "preprocess ~admit = preprocess over the admitted"
      arb_admit admit_equals_subset;
    Alcotest.test_case "funnel of an empty happy set gives no list" `Quick
      test_funnel_empty_happy;
    Alcotest.test_case "funnel certifies the points the greedy takes" `Quick
      test_funnel_certifies_few;
  ]
