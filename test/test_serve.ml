(* End-to-end tests for the serving subsystem (lib/serve): an in-process
   server on a temp Unix-domain socket, driven over the wire through
   Kregret_serve.Client.

   The central claim (ISSUE acceptance): for every loaded dataset and every
   k in d..|happy|, the served selection and mrr are bit-identical to a
   direct Stored_list prefix read AND to a fresh GeoGreedy run on the same
   candidates — including when the answer comes from the LRU cache or from
   a coalesced batch. *)

module Vector = Kregret_geom.Vector
module Dataset = Kregret_dataset.Dataset
module Csv_io = Kregret_dataset.Csv_io
module Skyline = Kregret_skyline.Skyline
module Happy = Kregret_happy.Happy
module Stored_list = Kregret.Stored_list
module Geo_greedy = Kregret.Geo_greedy
module Invariants = Kregret.Invariants
module Serve = Kregret_serve
module Client = Serve.Client
module Server = Serve.Server
module Json = Serve.Json

let exact_float =
  Alcotest.testable
    (fun ppf x -> Format.fprintf ppf "%.17g" x)
    (fun a b -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))

(* ---- fixtures ------------------------------------------------------------ *)

let write_csv ~name ~n ~d ~seed =
  let st = Testutil.test_rng seed in
  let points = Array.init n (fun _ -> Testutil.random_point st d) in
  let path = Filename.temp_file "kregret_serve_test" ".csv" in
  Csv_io.save path (Dataset.create ~name points);
  path

(* The reference pipeline, computed directly (no server): exactly what
   Registry.build does. *)
type direct = {
  dir_stored : Stored_list.t;
  dir_happy : Vector.t array;
  dir_orig_of_happy : int array;
  dir_n : int;
}

let direct_of_csv path =
  let ds = Dataset.normalize (Csv_io.load path) in
  let points = ds.Dataset.points in
  (* naive, not sfs: the Dynamic-backed registry keeps the naive
     (first-by-input-order) representative of duplicated maximal points *)
  let sky_idx = Skyline.naive points in
  let sky = Array.map (fun i -> points.(i)) sky_idx in
  let happy_idx = Happy.happy_points sky in
  let happy = Array.map (fun i -> sky.(i)) happy_idx in
  let orig_of_happy = Array.map (fun i -> sky_idx.(i)) happy_idx in
  {
    dir_stored = Stored_list.preprocess happy;
    dir_happy = happy;
    dir_orig_of_happy = orig_of_happy;
    dir_n = Array.length points;
  }

let direct_answer dir ~k =
  let sel = Stored_list.query dir.dir_stored ~k in
  ( List.map (fun i -> dir.dir_orig_of_happy.(i)) sel,
    Stored_list.mrr_at dir.dir_stored ~k )

let with_server ?cache_capacity ?max_line ?max_length ?workers ?listeners f =
  let socket_path = Server.temp_socket_path () in
  let server =
    Server.start_exn
      (Server.config ?cache_capacity ?max_line ?max_length ?workers ?listeners
         ~socket_path ())
  in
  Fun.protect ~finally:(fun () -> Server.stop server) (fun () ->
      f ~socket_path server)

let with_client ~socket_path f =
  match Client.connect ~socket_path () with
  | Error m -> Alcotest.failf "connect: %s" m
  | Ok c -> Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)

let or_fail what = function
  | Ok v -> v
  | Error m -> Alcotest.failf "%s: %s" what m

let load_and_wait c ~name ~path =
  ignore (or_fail "load" (Client.load c ~name ~path));
  or_fail "wait_ready" (Client.wait_ready c ~name)

(* ---- the bit-identical e2e sweep ----------------------------------------- *)

let test_bit_identical_all_k () =
  let path = write_csv ~name:"sweep" ~n:160 ~d:3 ~seed:11 in
  let dir = direct_of_csv path in
  let d = Vector.dim dir.dir_happy.(0) in
  let n_happy = Array.length dir.dir_happy in
  with_server ~cache_capacity:64 (fun ~socket_path _server ->
      with_client ~socket_path (fun c ->
          load_and_wait c ~name:"sweep" ~path;
          for k = d to n_happy do
            let sel_ref, mrr_ref = direct_answer dir ~k in
            (* cold *)
            let sel, mrr =
              or_fail "query" (Client.query c ~name:"sweep" ~k)
            in
            Alcotest.(check (list int))
              (Printf.sprintf "selection at k=%d == StoredList prefix" k)
              sel_ref sel;
            Alcotest.check exact_float
              (Printf.sprintf "mrr at k=%d bit-identical" k)
              mrr_ref mrr;
            (* the served selection is a valid k-regret answer *)
            (match
               Invariants.valid_selection ~what:"served" ~n:dir.dir_n ~k sel
             with
            | [] -> ()
            | ms -> Alcotest.failf "k=%d: %s" k (String.concat "; " ms));
            (* fresh GeoGreedy on the same candidates: same answer *)
            let g = Geo_greedy.run ~points:dir.dir_happy ~k () in
            let g_orig =
              List.map (fun i -> dir.dir_orig_of_happy.(i)) g.Geo_greedy.order
            in
            Alcotest.(check (list int))
              (Printf.sprintf "selection at k=%d == fresh GeoGreedy" k)
              g_orig sel;
            (* warm: the cache hit is the same bits *)
            let j = or_fail "query_json" (Client.query_json c ~name:"sweep" ~k) in
            Alcotest.(check (option bool))
              (Printf.sprintf "k=%d answered from cache" k)
              (Some true)
              (Option.bind (Json.member "cached" j) Json.to_bool);
            let sel', mrr' =
              or_fail "cached query" (Client.query c ~name:"sweep" ~k)
            in
            Alcotest.(check (list int)) "cached selection identical" sel sel';
            Alcotest.check exact_float "cached mrr identical" mrr mrr';
            (* the mrr verb agrees with the query verb *)
            let m = or_fail "mrr" (Client.mrr c ~name:"sweep" ~k) in
            Alcotest.check exact_float "mrr verb bit-identical" mrr_ref m
          done))

(* ---- concurrent clients: coalescing + cache stay bit-identical ----------- *)

let test_concurrent_clients () =
  let path = write_csv ~name:"conc" ~n:200 ~d:4 ~seed:23 in
  let dir = direct_of_csv path in
  let k = min 6 (Array.length dir.dir_happy) in
  let sel_ref, mrr_ref = direct_answer dir ~k in
  with_server ~cache_capacity:32 (fun ~socket_path _server ->
      with_client ~socket_path (fun c -> load_and_wait c ~name:"conc" ~path);
      let n_threads = 8 and per_thread = 5 in
      let results = Array.make n_threads [] in
      let threads =
        Array.init n_threads (fun i ->
            Thread.create
              (fun () ->
                with_client ~socket_path (fun c ->
                    for _ = 1 to per_thread do
                      results.(i) <-
                        Client.query c ~name:"conc" ~k :: results.(i)
                    done))
              ())
      in
      Array.iter Thread.join threads;
      Array.iteri
        (fun i rs ->
          List.iter
            (fun r ->
              let sel, mrr = or_fail (Printf.sprintf "thread %d" i) r in
              Alcotest.(check (list int)) "concurrent selection" sel_ref sel;
              Alcotest.check exact_float "concurrent mrr" mrr_ref mrr)
            rs)
        results;
      (* the server really did coalesce/cache rather than recompute 40x *)
      with_client ~socket_path (fun c ->
          let j = or_fail "stats" (Client.stats c) in
          let cache = Json.member "cache" j in
          let hits =
            Option.bind (Option.bind cache (Json.member "hits")) Json.to_int
            |> Option.value ~default:(-1)
          in
          if hits < 1 then
            Alcotest.failf "expected cache hits after 40 identical queries: %s"
              (Json.to_string j);
          (* the batch counters are read under the batcher mutex as one
             pair, so they can never tear: every coalesced group has
             exactly one leader, and leaders + followers never exceeds the
             total number of queries issued *)
          let batch = Json.member "batch" j in
          let bget name =
            Option.bind (Option.bind batch (Json.member name)) Json.to_int
            |> Option.value ~default:(-1)
          in
          let leaders = bget "leaders" and followers = bget "followers" in
          Alcotest.(check bool) "batch leaders sane" true (leaders >= 0);
          Alcotest.(check bool) "batch followers sane" true (followers >= 0);
          Alcotest.(check bool)
            (Printf.sprintf "batch pair consistent (%d leaders, %d followers)"
               leaders followers)
            true
            (leaders + followers <= n_threads * per_thread)))

(* ---- protocol robustness -------------------------------------------------- *)

let expect_error_code c ~code frame =
  match Client.request c frame with
  | Error m -> Alcotest.failf "request %S failed transport: %s" frame m
  | Ok j ->
      Alcotest.(check (option string))
        (Printf.sprintf "code for %s" frame)
        (Some code)
        (Option.bind (Json.member "error" j) (fun e ->
             Option.bind (Json.member "code" e) Json.to_str))

let test_malformed_frames () =
  with_server (fun ~socket_path _server ->
      with_client ~socket_path (fun c ->
          expect_error_code c ~code:"parse_error" "this is not json";
          expect_error_code c ~code:"parse_error" "{\"op\":";
          expect_error_code c ~code:"bad_request" "[1,2,3]";
          expect_error_code c ~code:"missing_field" "{\"op\":\"query\",\"k\":3}";
          expect_error_code c ~code:"missing_field" "{\"name\":\"x\",\"k\":3}";
          expect_error_code c ~code:"bad_field"
            "{\"op\":\"query\",\"name\":\"x\",\"k\":\"three\"}";
          expect_error_code c ~code:"bad_field"
            "{\"op\":\"query\",\"name\":\"x\",\"k\":0}";
          expect_error_code c ~code:"unknown_op" "{\"op\":\"frobnicate\"}";
          expect_error_code c ~code:"not_found"
            "{\"op\":\"query\",\"name\":\"nope\",\"k\":3}";
          (* after all that abuse, the same connection still serves *)
          ignore (or_fail "ping after abuse" (Client.ping c))))

let test_oversized_frame () =
  with_server ~max_line:128 (fun ~socket_path _server ->
      with_client ~socket_path (fun c ->
          let big =
            "{\"op\":\"ping\",\"pad\":\"" ^ String.make 400 'x' ^ "\"}"
          in
          (match Client.request c big with
          | Ok j ->
              Alcotest.(check (option string))
                "frame_too_large" (Some "frame_too_large")
                (Option.bind (Json.member "error" j) (fun e ->
                     Option.bind (Json.member "code" e) Json.to_str))
          | Error m -> Alcotest.failf "oversized frame: transport error %s" m);
          (* the connection is closed afterwards — framing is untrustworthy *)
          match Client.request_raw c "{\"op\":\"ping\"}" with
          | Error _ -> ()
          | Ok r ->
              Alcotest.failf "connection should be closed after oversize: %S" r);
      (* ...but the server itself is alive: a fresh connection works *)
      with_client ~socket_path (fun c ->
          ignore (or_fail "ping after oversize" (Client.ping c))))

let test_truncated_connection () =
  with_server (fun ~socket_path _server ->
      (* hang up mid-frame, twice, with raw sockets *)
      for _ = 1 to 2 do
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX socket_path);
        let partial = "{\"op\":\"qu" in
        ignore (Unix.write_substring fd partial 0 (String.length partial));
        Unix.close fd
      done;
      (* and hang up before reading the hello *)
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX socket_path);
      Unix.close fd;
      (* server is unimpressed *)
      with_client ~socket_path (fun c ->
          ignore (or_fail "ping after truncations" (Client.ping c))))

(* ---- registry lifecycle over the wire ------------------------------------- *)

let test_list_stats_evict () =
  let path = write_csv ~name:"life" ~n:80 ~d:3 ~seed:5 in
  with_server (fun ~socket_path _server ->
      with_client ~socket_path (fun c ->
          load_and_wait c ~name:"life" ~path;
          ignore (or_fail "query" (Client.query c ~name:"life" ~k:4));
          (* list: one ready dataset with build facts *)
          let j = or_fail "list" (Client.list_datasets c) in
          let ds =
            Option.bind (Json.member "datasets" j) Json.to_list
            |> Option.value ~default:[]
          in
          Alcotest.(check int) "one dataset" 1 (List.length ds);
          let d0 = List.hd ds in
          Alcotest.(check (option string))
            "status ready" (Some "ready")
            (Option.bind (Json.member "status" d0) Json.to_str);
          List.iter
            (fun field ->
              if Json.member field d0 = None then
                Alcotest.failf "list entry missing %s: %s" field
                  (Json.to_string d0))
            [ "name"; "path"; "fingerprint"; "n"; "d"; "shards"; "sky";
              "happy"; "materialized"; "build_seconds" ];
          (* stats: counters move *)
          let s = or_fail "stats" (Client.stats c) in
          let geti name =
            Option.bind (Json.member name s) Json.to_int
            |> Option.value ~default:(-1)
          in
          Alcotest.(check bool) "requests counted" true (geti "requests" > 0);
          Alcotest.(check int) "datasets gauge" 1 (geti "datasets");
          (* uptime comes from the monotonic wrapper: never negative *)
          Alcotest.(check bool) "uptime non-negative" true
            (match Option.bind (Json.member "uptime_seconds" s) Json.to_float with
            | Some u -> u >= 0.
            | None -> false);
          Alcotest.(check bool) "live connections reported" true
            (Option.bind (Json.member "connections" s) (Json.member "live")
             |> Fun.flip Option.bind Json.to_int
             |> Option.value ~default:(-1) >= 1);
          (* evict with no name clears the cache only *)
          ignore (or_fail "evict cache" (Client.evict c ()));
          let j = or_fail "query_json" (Client.query_json c ~name:"life" ~k:4) in
          Alcotest.(check (option bool))
            "cache cleared -> cold answer" (Some false)
            (Option.bind (Json.member "cached" j) Json.to_bool);
          (* evict by name drops the dataset *)
          ignore (or_fail "evict life" (Client.evict c ~name:"life" ()));
          match Client.query c ~name:"life" ~k:4 with
          | Error m when Testutil.contains m "not_found" -> ()
          | Error m -> Alcotest.failf "expected not_found, got %s" m
          | Ok _ -> Alcotest.fail "query after evict should fail"))

(* A query racing the background build either gets a [building] +
   retry_after (and the typed client retries through it) or a ready answer
   — never a hang, never a wrong answer. *)
let test_query_races_build () =
  let path = write_csv ~name:"race" ~n:300 ~d:4 ~seed:31 in
  let dir = direct_of_csv path in
  let k = min 5 (Array.length dir.dir_happy) in
  let sel_ref, mrr_ref = direct_answer dir ~k in
  with_server (fun ~socket_path _server ->
      with_client ~socket_path (fun c ->
          ignore (or_fail "load" (Client.load c ~name:"race" ~path));
          (* no wait_ready: Client.query retries on [building] *)
          let sel, mrr = or_fail "query during build" (Client.query c ~name:"race" ~k) in
          Alcotest.(check (list int)) "race selection" sel_ref sel;
          Alcotest.check exact_float "race mrr" mrr_ref mrr))

(* ---- staleness: the CSV changed on disk after load ------------------------ *)

let test_stale_dataset_rejected () =
  let path = write_csv ~name:"stale" ~n:60 ~d:3 ~seed:7 in
  with_server (fun ~socket_path _server ->
      with_client ~socket_path (fun c ->
          load_and_wait c ~name:"stale" ~path;
          ignore (or_fail "query before rewrite" (Client.query c ~name:"stale" ~k:4));
          (* rewrite the backing file with different bytes *)
          let st = Testutil.test_rng 99 in
          let points = Array.init 70 (fun _ -> Testutil.random_point st 3) in
          Csv_io.save path (Dataset.create ~name:"stale" points);
          (* the stale StoredList must NOT be served *)
          (match Client.query c ~name:"stale" ~k:4 with
          | Ok _ -> Alcotest.fail "served a stale dataset"
          | Error m ->
              Alcotest.(check bool)
                (Printf.sprintf "stale_dataset error (got %s)" m)
                true
                (Testutil.contains m "stale_dataset"));
          (* mrr takes the same guard *)
          (match Client.mrr c ~name:"stale" ~k:4 with
          | Ok _ -> Alcotest.fail "served mrr from a stale dataset"
          | Error m ->
              Alcotest.(check bool) "stale mrr rejected" true
                (Testutil.contains m "stale_dataset"));
          (* re-loading picks up the new bytes and serves the new answer *)
          load_and_wait c ~name:"stale" ~path;
          let dir = direct_of_csv path in
          let sel_ref, mrr_ref = direct_answer dir ~k:4 in
          let sel, mrr = or_fail "query after reload" (Client.query c ~name:"stale" ~k:4) in
          Alcotest.(check (list int)) "reloaded selection" sel_ref sel;
          Alcotest.check exact_float "reloaded mrr" mrr_ref mrr))

(* load errors are structured, not fatal *)
let test_load_failures () =
  with_server (fun ~socket_path _server ->
      with_client ~socket_path (fun c ->
          (match Client.load c ~name:"ghost" ~path:"/nonexistent/file.csv" with
          | Ok _ -> Alcotest.fail "loading a missing file should fail"
          | Error _ -> ());
          let bad = Filename.temp_file "kregret_serve_bad" ".csv" in
          Out_channel.with_open_text bad (fun oc ->
              output_string oc "1.0,2.0\nnot,a,number\n");
          (match Client.load c ~name:"bad" ~path:bad with
          | Ok _ -> Alcotest.fail "loading malformed CSV should fail"
          | Error _ -> ());
          let nan_csv = Filename.temp_file "kregret_serve_nan" ".csv" in
          Out_channel.with_open_text nan_csv (fun oc ->
              output_string oc "0.5,1\n0.2,0.3\n0.7,nan\n1,0\n");
          (match Client.load c ~name:"nan" ~path:nan_csv with
          | Ok _ -> Alcotest.fail "loading a NaN field should fail"
          | Error m ->
              Alcotest.(check bool)
                (Printf.sprintf "NaN load answers load_failed: %s" m)
                true
                (String.starts_with ~prefix:"server error [load_failed]" m));
          Sys.remove nan_csv;
          (* server alive, registry empty *)
          let j = or_fail "list" (Client.list_datasets c) in
          Alcotest.(check int) "no datasets" 0
            (Option.bind (Json.member "datasets" j) Json.to_list
            |> Option.value ~default:[] |> List.length)))

(* ---- dynamic updates over the wire ---------------------------------------- *)

(* rebuild expectation over an explicit (id, point) live set *)
let expected_of_live live ~k =
  let vecs = Array.map snd live in
  let sky_idx = Skyline.naive vecs in
  let sky = Array.map (fun i -> vecs.(i)) sky_idx in
  let happy_idx = Happy.happy_points sky in
  let happy = Array.map (fun i -> sky.(i)) happy_idx in
  let stored = Stored_list.preprocess happy in
  let sel = Stored_list.query stored ~k in
  ( List.map (fun e -> fst live.(sky_idx.(happy_idx.(e)))) sel,
    Stored_list.mrr_at stored ~k )

let test_update_verbs_end_to_end () =
  let path = write_csv ~name:"dyn" ~n:60 ~d:3 ~seed:41 in
  let base = (Dataset.normalize (Csv_io.load path)).Dataset.points in
  let n = Array.length base in
  let with_ids pts = Array.mapi (fun i p -> (i, p)) pts in
  with_server (fun ~socket_path _server ->
      with_client ~socket_path (fun c ->
          load_and_wait c ~name:"dyn" ~path;
          let k = 4 in
          let sel0, mrr0 = or_fail "query" (Client.query c ~name:"dyn" ~k) in
          (* insert a skyline-entering point: ids continue past the CSV rows *)
          let p = [| 0.99; 0.98; 0.97 |] in
          let id = or_fail "insert" (Client.insert c ~name:"dyn" ~point:p) in
          Alcotest.(check int) "insert id continues the row sequence" n id;
          let live = Array.append (with_ids base) [| (id, p) |] in
          let sel_ref, mrr_ref = expected_of_live live ~k in
          let sel, mrr = or_fail "query after insert" (Client.query c ~name:"dyn" ~k) in
          Alcotest.(check (list int)) "post-insert selection == rebuild" sel_ref sel;
          Alcotest.check exact_float "post-insert mrr == rebuild" mrr_ref mrr;
          Alcotest.(check bool) "the insert shows up in the answer" true
            (List.mem id sel);
          (* a mutated dataset no longer goes stale when the CSV is rewritten:
             the file is a seed, not the source of truth *)
          let st = Testutil.test_rng 77 in
          Csv_io.save path
            (Dataset.create ~name:"dyn"
               (Array.init 10 (fun _ -> Testutil.random_point st 3)));
          let sel', _ = or_fail "query after CSV rewrite" (Client.query c ~name:"dyn" ~k) in
          Alcotest.(check (list int)) "rewrite ignored once mutated" sel sel';
          (* delete the insert: answers return to the original bits *)
          Alcotest.(check bool) "delete applies" true
            (or_fail "delete" (Client.delete c ~name:"dyn" ~id));
          let sel'', mrr'' = or_fail "query after delete" (Client.query c ~name:"dyn" ~k) in
          Alcotest.(check (list int)) "round trip restores the selection" sel0 sel'';
          Alcotest.check exact_float "round trip restores the mrr" mrr0 mrr'';
          (* flush reclaims the tombstone; deleting a dead id is a no-op *)
          Alcotest.(check int) "flush reclaims the tombstone" 1
            (or_fail "flush" (Client.flush c ~name:"dyn"));
          Alcotest.(check bool) "dead id delete is a no-op" false
            (or_fail "delete again" (Client.delete c ~name:"dyn" ~id));
          (* malformed points are structured bad_point errors, not failures *)
          (match Client.insert c ~name:"dyn" ~point:[| 0.5; 0.5 |] with
          | Ok _ -> Alcotest.fail "dimension mismatch should be rejected"
          | Error m ->
              Alcotest.(check bool)
                (Printf.sprintf "bad_point for wrong dim (got %s)" m)
                true
                (Testutil.contains m "bad_point"));
          (match Client.insert c ~name:"dyn" ~point:[| 0.5; 0.5; 2.5 |] with
          | Ok _ -> Alcotest.fail "out-of-range coordinate should be rejected"
          | Error m ->
              Alcotest.(check bool) "bad_point for out-of-range" true
                (Testutil.contains m "bad_point"));
          (* list reports the dynamic facts *)
          let j = or_fail "list" (Client.list_datasets c) in
          let d0 =
            List.hd
              (Option.bind (Json.member "datasets" j) Json.to_list
              |> Option.value ~default:[])
          in
          Alcotest.(check (option bool)) "mutated flag" (Some true)
            (Option.bind (Json.member "mutated" d0) Json.to_bool);
          Alcotest.(check (option int)) "live count" (Some n)
            (Option.bind (Json.member "live" d0) Json.to_int);
          Alcotest.(check bool) "epoch advanced" true
            (Option.bind (Json.member "epoch" d0) Json.to_int
             |> Option.value ~default:(-1) > 0)))

(* concurrent loads of the same unchanged file are idempotent: one entry,
   every caller joins the same build, and the dataset serves afterwards *)
let test_concurrent_load_idempotent () =
  let path = write_csv ~name:"multi" ~n:120 ~d:3 ~seed:53 in
  let reg = Serve.Registry.create () in
  Fun.protect ~finally:(fun () -> Serve.Registry.shutdown reg) (fun () ->
      let results = Array.make 8 (Error "unset") in
      let threads =
        Array.init 8 (fun i ->
            Thread.create
              (fun () -> results.(i) <- Serve.Registry.load reg ~name:"multi" ~path)
              ())
      in
      Array.iter Thread.join threads;
      let fps =
        Array.to_list results
        |> List.map (fun r -> (or_fail "concurrent load" r).Serve.Registry.fingerprint)
      in
      (match fps with
      | fp :: rest ->
          List.iter
            (fun fp' ->
              Alcotest.(check string) "all loads saw one fingerprint" fp fp')
            rest
      | [] -> Alcotest.fail "no loads ran");
      Alcotest.(check int) "one registry entry" 1
        (List.length (Serve.Registry.list reg));
      (* the single build completes and serves *)
      let rec wait tries =
        if tries = 0 then Alcotest.fail "build never finished"
        else
          match Serve.Registry.find reg "multi" with
          | Some { Serve.Registry.status = Serve.Registry.Ready _; _ } -> ()
          | Some { Serve.Registry.status = Serve.Registry.Failed m; _ } ->
              Alcotest.failf "build failed: %s" m
          | _ ->
              Thread.delay 0.02;
              wait (tries - 1)
      in
      wait 500)

(* a Failed build is retried by an explicit re-load of the same bytes
   (failures can be transient); it must not stick forever *)
let test_failed_build_reload_retries () =
  (* d = 21 parses and normalizes fine but the happy screen refuses d > 20,
     so the background build fails deterministically *)
  let st = Testutil.test_rng 61 in
  let points = Array.init 8 (fun _ -> Testutil.random_point st 21) in
  let path = Filename.temp_file "kregret_serve_wide" ".csv" in
  Csv_io.save path (Dataset.create ~name:"wide" points);
  let reg = Serve.Registry.create () in
  Fun.protect ~finally:(fun () -> Serve.Registry.shutdown reg) (fun () ->
      ignore (or_fail "first load" (Serve.Registry.load reg ~name:"wide" ~path));
      let rec wait_failed tries =
        if tries = 0 then Alcotest.fail "build never failed"
        else
          match Serve.Registry.find reg "wide" with
          | Some { Serve.Registry.status = Serve.Registry.Failed _; _ } -> ()
          | Some { Serve.Registry.status = Serve.Registry.Ready _; _ } ->
              Alcotest.fail "d=21 build unexpectedly succeeded"
          | _ ->
              Thread.delay 0.02;
              wait_failed (tries - 1)
      in
      wait_failed 500;
      (* the re-load re-enqueues instead of parroting the cached failure *)
      let info = or_fail "re-load" (Serve.Registry.load reg ~name:"wide" ~path) in
      (match info.Serve.Registry.status with
      | Serve.Registry.Building -> ()
      | Serve.Registry.Failed _ ->
          Alcotest.fail "re-load returned the stale failure without retrying"
      | Serve.Registry.Ready _ -> Alcotest.fail "d=21 cannot be ready");
      (* the retry runs to its (deterministic) failure, not limbo *)
      wait_failed 500)

(* ---- event-driven poller: connection lifecycle ---------------------------- *)

(* the regression this guards: the old thread-per-connection server appended
   every accepted connection to [t.conns] and never removed it, so state
   grew with history. The poller keeps a live table only: after 10k
   sequential connect/close cycles the table must be bounded by concurrency
   (here: ~1), while the accepted counter records the full history. *)
let test_connection_churn () =
  with_server (fun ~socket_path server ->
      let churn = 10_000 in
      for i = 1 to churn do
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX socket_path);
        (* occasionally do a full round trip so the fds aren't all
           hello-only; mostly just slam the door *)
        if i mod 997 = 0 then begin
          let b = Bytes.create 512 in
          (* read the hello *)
          ignore (Unix.read fd b 0 512);
          let ping = "{\"op\":\"ping\"}\n" in
          ignore (Unix.write_substring fd ping 0 (String.length ping));
          ignore (Unix.read fd b 0 512)
        end;
        Unix.close fd
      done;
      (* give the sweep a beat to retire the last few closed fds *)
      let rec settle tries =
        if Server.live_connections server > 0 && tries > 0 then begin
          Thread.delay 0.01;
          settle (tries - 1)
        end
      in
      settle 300;
      Alcotest.(check bool)
        (Printf.sprintf "accepted the full history (%d)"
           (Server.accepted_connections server))
        true
        (Server.accepted_connections server >= churn);
      let live = Server.live_connections server in
      Alcotest.(check bool)
        (Printf.sprintf "live table bounded by concurrency (live=%d)" live)
        true (live <= 4);
      (* and the server still serves *)
      with_client ~socket_path (fun c ->
          ignore (or_fail "ping after churn" (Client.ping c))))

(* ---- transports: UDS and TCP serve identical bytes ------------------------ *)

(* one server, two listeners; the same frame script must produce
   byte-identical response lines over both transports. The script starts
   with [evict] so each transport sees the same cache state (cold then
   cached). *)
let test_transports_byte_identical () =
  let path = write_csv ~name:"wire" ~n:120 ~d:3 ~seed:17 in
  with_server
    ~listeners:[ Serve.Endpoint.Tcp ("127.0.0.1", 0) ]
    (fun ~socket_path server ->
      with_client ~socket_path (fun c -> load_and_wait c ~name:"wire" ~path);
      let tcp =
        match
          List.find_opt
            (function Serve.Endpoint.Tcp _ -> true | _ -> false)
            (Server.endpoints server)
        with
        | Some e -> e
        | None -> Alcotest.fail "server resolved no TCP endpoint"
      in
      let script =
        [
          "{\"op\":\"evict\"}";
          "{\"op\":\"query\",\"name\":\"wire\",\"k\":3}";
          "{\"op\":\"query\",\"name\":\"wire\",\"k\":3}";
          "{\"op\":\"mrr\",\"name\":\"wire\",\"k\":2}";
          "{\"op\":\"query\",\"name\":\"wire\",\"k\":0}";
          "not json at all";
          "{\"op\":\"ping\"}";
        ]
      in
      let run_session endpoint =
        match Client.connect_to endpoint with
        | Error m ->
            Alcotest.failf "connect %s: %s" (Serve.Endpoint.to_string endpoint) m
        | Ok c ->
            Fun.protect
              ~finally:(fun () -> Client.close c)
              (fun () ->
                List.map
                  (fun frame ->
                    or_fail
                      (Printf.sprintf "frame %s over %s" frame
                         (Serve.Endpoint.to_string endpoint))
                      (Client.request_raw c frame))
                  script)
      in
      let over_uds = run_session (Serve.Endpoint.Unix_path socket_path) in
      let over_tcp = run_session tcp in
      List.iteri
        (fun i (u, t) ->
          Alcotest.(check string)
            (Printf.sprintf "response %d byte-identical across transports" i)
            u t)
        (List.combine over_uds over_tcp);
      (* the cached flag flipped within each session exactly the same way:
         cold after evict, cached on the repeat *)
      let cached_of line =
        match Json.parse line with
        | Ok j -> Option.bind (Json.member "cached" j) Json.to_bool
        | Error _ -> None
      in
      Alcotest.(check (option bool))
        "first query cold" (Some false)
        (cached_of (List.nth over_uds 1));
      Alcotest.(check (option bool))
        "repeat query cached" (Some true)
        (cached_of (List.nth over_uds 2)))

(* ---- scatter-gather shard tier -------------------------------------------- *)

(* over the wire: a sharded load answers bit-identically to the solo load
   of the same CSV at every k, and reports itself static *)
let test_shard_vs_monolithic_wire () =
  let path = write_csv ~name:"sh" ~n:150 ~d:3 ~seed:29 in
  let dir = direct_of_csv path in
  let n_happy = Array.length dir.dir_happy in
  with_server (fun ~socket_path _server ->
      with_client ~socket_path (fun c ->
          ignore (or_fail "load solo" (Client.load c ~name:"solo" ~path));
          ignore
            (or_fail "load sharded" (Client.load ~shards:4 c ~name:"quads" ~path));
          or_fail "wait solo" (Client.wait_ready c ~name:"solo");
          or_fail "wait sharded" (Client.wait_ready c ~name:"quads");
          for k = 1 to n_happy do
            let sel_s, mrr_s =
              or_fail "solo query" (Client.query c ~name:"solo" ~k)
            in
            let sel_q, mrr_q =
              or_fail "sharded query" (Client.query c ~name:"quads" ~k)
            in
            Alcotest.(check (list int))
              (Printf.sprintf "k=%d sharded selection == solo" k)
              sel_s sel_q;
            Alcotest.check exact_float
              (Printf.sprintf "k=%d sharded mrr bit-identical" k)
              mrr_s mrr_q;
            (* and both match the offline pipeline *)
            let sel_ref, mrr_ref = direct_answer dir ~k in
            Alcotest.(check (list int))
              (Printf.sprintf "k=%d sharded == offline StoredList" k)
              sel_ref sel_q;
            Alcotest.check exact_float
              (Printf.sprintf "k=%d sharded mrr == offline" k)
              mrr_ref mrr_q
          done;
          (* a sharded dataset is static: every update verb is rejected with
             a structured code, and the dataset keeps serving afterwards *)
          (match Client.insert c ~name:"quads" ~point:[| 0.9; 0.8; 0.7 |] with
          | Ok _ -> Alcotest.fail "insert into a sharded dataset must fail"
          | Error m ->
              Alcotest.(check bool)
                (Printf.sprintf "static_dataset on insert (got %s)" m)
                true
                (Testutil.contains m "static_dataset"));
          (match Client.delete c ~name:"quads" ~id:0 with
          | Ok _ -> Alcotest.fail "delete on a sharded dataset must fail"
          | Error m ->
              Alcotest.(check bool) "static_dataset on delete" true
                (Testutil.contains m "static_dataset"));
          (match Client.flush c ~name:"quads" with
          | Ok _ -> Alcotest.fail "flush on a sharded dataset must fail"
          | Error m ->
              Alcotest.(check bool) "static_dataset on flush" true
                (Testutil.contains m "static_dataset"));
          ignore (or_fail "query after rejects" (Client.query c ~name:"quads" ~k:3));
          (* list reports the shard count on both entries *)
          let j = or_fail "list" (Client.list_datasets c) in
          let ds =
            Option.bind (Json.member "datasets" j) Json.to_list
            |> Option.value ~default:[]
          in
          let shards_of name =
            List.find_opt
              (fun d -> Option.bind (Json.member "name" d) Json.to_str = Some name)
              ds
            |> Fun.flip Option.bind (Json.member "shards")
            |> Fun.flip Option.bind Json.to_int
          in
          Alcotest.(check (option int)) "solo shards" (Some 1) (shards_of "solo");
          Alcotest.(check (option int)) "sharded shards" (Some 4)
            (shards_of "quads")))

(* the coordinator merge itself: for every shard count and every pool
   width, Shard.create answers row-for-row what the monolithic pipeline
   answers. This is the oracle form of the DESIGN §6 exactness argument. *)
let test_shard_merge_across_jobs () =
  let path = write_csv ~name:"merge" ~n:220 ~d:4 ~seed:71 in
  let points = (Dataset.normalize (Csv_io.load path)).Dataset.points in
  let dir = direct_of_csv path in
  let n_happy = Array.length dir.dir_happy in
  let jobs0 = Kregret_parallel.Pool.get_jobs () in
  Fun.protect
    ~finally:(fun () -> Kregret_parallel.Pool.set_jobs jobs0)
    (fun () ->
      List.iter
        (fun jobs ->
          Kregret_parallel.Pool.set_jobs jobs;
          List.iter
            (fun shards ->
              let sh = Serve.Shard.create ~shards points in
              Alcotest.(check int)
                (Printf.sprintf "jobs=%d shards=%d union skyline size" jobs
                   shards)
                (Array.length (Skyline.naive points))
                (Serve.Shard.n_sky sh);
              for k = 1 to n_happy do
                let sel_ref, mrr_ref = direct_answer dir ~k in
                let sel, mrr = Serve.Shard.query sh ~k in
                Alcotest.(check (list int))
                  (Printf.sprintf "jobs=%d shards=%d k=%d merged selection"
                     jobs shards k)
                  sel_ref sel;
                Alcotest.check exact_float
                  (Printf.sprintf "jobs=%d shards=%d k=%d merged mrr" jobs
                     shards k)
                  mrr_ref mrr
              done)
            [ 1; 2; 3; 4; 7 ])
        [ 1; 2; 4 ])

(* ---- shutdown under load cannot hang -------------------------------------- *)

let test_shutdown_under_load () =
  let uds = Server.temp_socket_path () in
  let server =
    Server.start_exn
      (Server.config
         ~listeners:[ Serve.Endpoint.Unix_path uds; Serve.Endpoint.Tcp ("127.0.0.1", 0) ]
         ())
  in
  let endpoints = Server.endpoints server in
  let give_up = Atomic.make false in
  (* three pingers per listener, reconnecting in a loop until the server
     goes away *)
  let pingers =
    List.concat_map
      (fun ep ->
        List.init 3 (fun _ ->
            Thread.create
              (fun () ->
                let rec go () =
                  if not (Atomic.get give_up) then
                    match Client.connect_to ~timeout:5. ep with
                    | Error _ -> () (* server is gone: done *)
                    | Ok c ->
                        let rec pings n =
                          if n > 0 && not (Atomic.get give_up) then
                            match Client.ping c with
                            | Ok _ -> pings (n - 1)
                            | Error _ -> ()
                        in
                        pings 50;
                        Client.close c;
                        go ()
                in
                go ())
              ()))
      endpoints
  in
  (* let the load build up *)
  Thread.delay 0.2;
  let stopped = Atomic.make false in
  let stopper =
    Thread.create
      (fun () ->
        Server.stop server;
        Atomic.set stopped true)
      ()
  in
  (* watchdog: stop drains in-flight requests (5 s deadline inside the
     poller) and must return well before this outer deadline *)
  let deadline = Unix.gettimeofday () +. 20. in
  while (not (Atomic.get stopped)) && Unix.gettimeofday () < deadline do
    Thread.delay 0.05
  done;
  Atomic.set give_up true;
  Alcotest.(check bool) "shutdown completed under load" true
    (Atomic.get stopped);
  Thread.join stopper;
  List.iter Thread.join pingers

(* ε-kernel loads over the wire: served answers are bit-identical to the
   offline approx pipeline, the dataset is static, and exact vs approx
   loads of the same file never collide in the result cache (the cache key
   carries the approx field — the probe below would serve the wrong bits
   at any shared k if it didn't). *)
let test_approx_load_end_to_end () =
  let path = write_csv ~name:"apx" ~n:200 ~d:3 ~seed:41 in
  let eps = 0.2 in
  let points = (Dataset.normalize (Csv_io.load path)).Dataset.points in
  let p = Kregret_approx.Pipeline.run ~eps points in
  let dir = direct_of_csv path in
  let len_apx = Kregret_approx.Pipeline.stored_length p in
  let len_exact = Stored_list.length dir.dir_stored in
  with_server ~cache_capacity:64 (fun ~socket_path _server ->
      with_client ~socket_path (fun c ->
          ignore (or_fail "load exact" (Client.load c ~name:"exact" ~path));
          ignore
            (or_fail "load approx" (Client.load ~approx:eps c ~name:"apx" ~path));
          or_fail "wait exact" (Client.wait_ready c ~name:"exact");
          or_fail "wait approx" (Client.wait_ready c ~name:"apx");
          (* cold pass: each name answers its own offline pipeline *)
          for k = 1 to min len_apx len_exact do
            let sel_a, mrr_a = or_fail "approx query" (Client.query c ~name:"apx" ~k) in
            let ref_a, ref_a_mrr = Kregret_approx.Pipeline.query p ~k in
            Alcotest.(check (list int))
              (Printf.sprintf "k=%d served approx selection == offline pipeline" k)
              ref_a sel_a;
            Alcotest.check exact_float
              (Printf.sprintf "k=%d served approx mrr bit-identical" k)
              ref_a_mrr mrr_a;
            let sel_e, mrr_e = or_fail "exact query" (Client.query c ~name:"exact" ~k) in
            let ref_e, ref_e_mrr = direct_answer dir ~k in
            Alcotest.(check (list int))
              (Printf.sprintf "k=%d served exact selection == StoredList" k)
              ref_e sel_e;
            Alcotest.check exact_float
              (Printf.sprintf "k=%d served exact mrr bit-identical" k)
              ref_e_mrr mrr_e
          done;
          (* warm pass (every k now cached): still each name's own answer —
             this is the collision probe, both entries share the file
             fingerprint and differ only in the approx key component *)
          for k = 1 to min len_apx len_exact do
            let j = or_fail "cached approx" (Client.query_json c ~name:"apx" ~k) in
            Alcotest.(check (option bool))
              (Printf.sprintf "k=%d approx answered from cache" k)
              (Some true)
              (Option.bind (Json.member "cached" j) Json.to_bool);
            let sel_a, mrr_a = or_fail "approx requery" (Client.query c ~name:"apx" ~k) in
            let ref_a, ref_a_mrr = Kregret_approx.Pipeline.query p ~k in
            Alcotest.(check (list int))
              (Printf.sprintf "k=%d cached approx selection uncollided" k)
              ref_a sel_a;
            Alcotest.check exact_float
              (Printf.sprintf "k=%d cached approx mrr uncollided" k)
              ref_a_mrr mrr_a;
            let sel_e, mrr_e = or_fail "exact requery" (Client.query c ~name:"exact" ~k) in
            let ref_e, ref_e_mrr = direct_answer dir ~k in
            Alcotest.(check (list int))
              (Printf.sprintf "k=%d cached exact selection uncollided" k)
              ref_e sel_e;
            Alcotest.check exact_float
              (Printf.sprintf "k=%d cached exact mrr uncollided" k)
              ref_e_mrr mrr_e
          done;
          (* an approximate dataset is static *)
          (match Client.insert c ~name:"apx" ~point:[| 0.9; 0.8; 0.7 |] with
          | Ok _ -> Alcotest.fail "insert into an approx dataset must fail"
          | Error m ->
              Alcotest.(check bool)
                (Printf.sprintf "static_dataset on insert (got %s)" m)
                true
                (Testutil.contains m "static_dataset"));
          (* while the exact twin stays dynamic *)
          ignore
            (or_fail "insert into exact twin"
               (Client.insert c ~name:"exact" ~point:[| 0.9; 0.8; 0.7 |]));
          (* list reports the approx field on both entries *)
          let j = or_fail "list" (Client.list_datasets c) in
          let ds =
            Option.bind (Json.member "datasets" j) Json.to_list
            |> Option.value ~default:[]
          in
          let approx_of name =
            List.find_opt
              (fun d -> Option.bind (Json.member "name" d) Json.to_str = Some name)
              ds
            |> Fun.flip Option.bind (Json.member "approx")
            |> Fun.flip Option.bind Json.to_float
          in
          Alcotest.(check (option (float 0.))) "exact approx field" (Some 0.)
            (approx_of "exact");
          Alcotest.(check (option (float 0.))) "approx approx field" (Some eps)
            (approx_of "apx")))

let suite =
  [
    Alcotest.test_case "e2e: selections bit-identical for all k (cold, cached, \
                        mrr verb, fresh GeoGreedy)" `Slow
      test_bit_identical_all_k;
    Alcotest.test_case "e2e: concurrent clients, coalesced + cached" `Slow
      test_concurrent_clients;
    Alcotest.test_case "protocol: malformed frames get structured errors" `Quick
      test_malformed_frames;
    Alcotest.test_case "protocol: oversized frame closes only that connection"
      `Quick test_oversized_frame;
    Alcotest.test_case "protocol: truncated connections don't kill the server"
      `Quick test_truncated_connection;
    Alcotest.test_case "lifecycle: list/stats/evict over the wire" `Quick
      test_list_stats_evict;
    Alcotest.test_case "lifecycle: query races the background build" `Quick
      test_query_races_build;
    Alcotest.test_case "staleness: rewritten CSV is rejected, reload recovers"
      `Quick test_stale_dataset_rejected;
    Alcotest.test_case "lifecycle: load failures are structured" `Quick
      test_load_failures;
    Alcotest.test_case "dynamic: insert/delete/flush verbs end to end" `Slow
      test_update_verbs_end_to_end;
    Alcotest.test_case "registry: concurrent loads of one file are idempotent"
      `Quick test_concurrent_load_idempotent;
    Alcotest.test_case "registry: failed builds are retried on re-load" `Quick
      test_failed_build_reload_retries;
    Alcotest.test_case "poller: 10k-connection churn keeps live state bounded"
      `Slow test_connection_churn;
    Alcotest.test_case "transports: UDS and TCP sessions are byte-identical"
      `Quick test_transports_byte_identical;
    Alcotest.test_case "shards: wire answers match solo load bit-for-bit, \
                        updates rejected" `Slow test_shard_vs_monolithic_wire;
    Alcotest.test_case "shards: merge exact across shard counts and pool \
                        widths" `Slow test_shard_merge_across_jobs;
    Alcotest.test_case "poller: shutdown under load cannot hang" `Quick
      test_shutdown_under_load;
    Alcotest.test_case "approx: served kernels bit-identical to offline, no \
                        exact/approx cache collisions" `Slow
      test_approx_load_end_to_end;
  ]
