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
module Protocol = Serve.Protocol
module Obs = Kregret_obs

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

(* a counter of a [stats] reply's metrics document; the document leaves
   zero counters out *)
let stats_counter s name =
  List.fold_left
    (fun j key -> Option.bind j (Json.member key))
    (Some s)
    [ "metrics"; "counters"; name ]
  |> Fun.flip Option.bind Json.to_int
  |> Option.value ~default:0

let counter name =
  Option.value ~default:0 (List.assoc_opt name (Obs.Registry.counters ()))

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
  Testutil.recording @@ fun () ->
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
          if stats_counter j "serve.cache.hits" < 1 then
            Alcotest.failf "expected cache hits after 40 identical queries: %s"
              (Json.to_string j);
          (* every coalesced group has exactly one leader, and leaders +
             followers never exceeds the total number of queries issued *)
          let leaders = stats_counter j "serve.batch.leaders"
          and followers = stats_counter j "serve.batch.followers" in
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

(* A frame reported too long before its newline arrived is dropped up to
   that newline. The reader used to keep its bytes and report the frame a
   second time once the newline came, so a client that carried on after an
   oversized reply read every later reply one frame late. *)
let test_reader_drops_oversized_frame () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> List.iter Unix.close [ a; b ]) @@ fun () ->
  let r = Protocol.reader b in
  let send s = ignore (Unix.write_substring a s 0 (String.length s)) in
  let read () =
    match Protocol.read_line r ~max:16 with
    | `Line l -> "line " ^ l
    | `Too_long -> "too long"
    | `Eof -> "eof"
    | `Error m -> "error " ^ m
  in
  send (String.make 40 'x');
  let first = read () in
  send "\nok\n";
  let second = read () in
  Alcotest.(check (list string)) "one report per frame, then the next frame"
    [ "too long"; "line ok" ] [ first; second ]

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
  Testutil.recording @@ fun () ->
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
            [ "name"; "path"; "fingerprint"; "n"; "d"; "sky"; "happy";
              "materialized"; "build_seconds" ];
          (* stats: counters move *)
          let s = or_fail "stats" (Client.stats c) in
          let geti name =
            Option.bind (Json.member name s) Json.to_int
            |> Option.value ~default:(-1)
          in
          Alcotest.(check bool) "requests counted" true
            (stats_counter s "serve.requests" > 0);
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

(* [stats] replies with the live state and the Obs snapshot: its counters
   are the registry's, read at the reply, and every count the reply once
   built by hand is there under its Obs name (all but
   [serve.batch.followers], which needs two identical misses in flight at
   once). *)
let test_stats_is_metrics_document () =
  let path = write_csv ~name:"doc" ~n:80 ~d:3 ~seed:7 in
  Testutil.recording @@ fun () ->
  with_server ~cache_capacity:1 (fun ~socket_path _server ->
      with_client ~socket_path (fun c ->
          load_and_wait c ~name:"doc" ~path;
          (* a miss, its hit, a miss that evicts it, an error *)
          List.iter
            (fun k -> ignore (or_fail "query" (Client.query c ~name:"doc" ~k)))
            [ 3; 3; 4 ];
          ignore (or_fail "bad frame" (Client.request_raw c "not json"));
          let before = counter "serve.requests" and n = 7 in
          for _ = 1 to n do
            ignore (or_fail "ping" (Client.ping c))
          done;
          let reply =
            or_fail "stats" (Client.request_raw c {|{"op":"stats"}|})
          in
          let registry = Obs.Registry.counters () in
          let s =
            match Json.parse reply with
            | Ok s -> s
            | Error m -> Alcotest.failf "stats reply: %s" m
          in
          Alcotest.(check int) "N pings and the stats request" (before + n + 1)
            (stats_counter s "serve.requests");
          let counters =
            match
              Option.bind (Json.member "metrics" s) (Json.member "counters")
            with
            | Some (Json.Obj fields) ->
                List.map
                  (fun (name, v) ->
                    (name, Option.value ~default:(-1) (Json.to_int v)))
                  fields
            | _ -> Alcotest.failf "no metrics.counters in %s" reply
          in
          Alcotest.(check (list (pair string int)))
            "the reply's counters are the registry's" registry counters;
          Alcotest.(check (option string)) "schema" (Some "kregret-obs/v1")
            (Option.bind
               (Option.bind (Json.member "metrics" s) (Json.member "schema"))
               Json.to_str);
          List.iter
            (fun name ->
              if stats_counter s name < 1 then
                Alcotest.failf "%s missing from %s" name reply)
            [
              "serve.requests"; "serve.errors"; "serve.connections";
              "serve.cache.hits"; "serve.cache.misses";
              "serve.cache.evictions"; "serve.cache.insertions";
              "serve.batch.leaders";
            ];
          let field path =
            List.fold_left
              (fun j key -> Option.bind j (Json.member key))
              (Some s) path
          in
          List.iter
            (fun path ->
              if field path = None then
                Alcotest.failf "%s missing from %s" (String.concat "." path)
                  reply)
            [
              [ "proto" ]; [ "uptime_seconds" ]; [ "datasets" ];
              [ "connections"; "live" ]; [ "cache"; "capacity" ];
              [ "cache"; "entries" ];
            ];
          Alcotest.(check bool)
            (Printf.sprintf "far under the frame limit (%d bytes)"
               (String.length reply))
            true
            (String.length reply < Protocol.default_max_line / 8)));
  Sys.remove path

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

(* data wider than Dd.max_dim is refused at load, exact or ε, with a
   message naming d and the limit: no build is left to fail, nothing is
   listed, and the other datasets keep answering *)
let test_load_refuses_high_dim () =
  let wide = write_csv ~name:"wide" ~n:25 ~d:17 ~seed:29 in
  let path = write_csv ~name:"narrow" ~n:40 ~d:3 ~seed:5 in
  with_server (fun ~socket_path _server ->
      with_client ~socket_path (fun c ->
          load_and_wait c ~name:"narrow" ~path;
          let sel0, mrr0 = or_fail "query" (Client.query c ~name:"narrow" ~k:3) in
          List.iter
            (fun approx ->
              match Client.load ?approx c ~name:"wide" ~path:wide with
              | Ok _ -> Alcotest.fail "a 17-dimensional load was accepted"
              | Error m ->
                  Alcotest.(check bool)
                    (Printf.sprintf "load_failed naming d and the limit: %s" m)
                    true
                    (String.starts_with ~prefix:"server error [load_failed]" m
                    && Testutil.contains m "17 dimensions"
                    && Testutil.contains m "at most 16"))
            [ None; Some 0.1 ];
          let j = or_fail "list" (Client.list_datasets c) in
          Alcotest.(check (list string))
            "listed" [ "narrow" ]
            (Option.bind (Json.member "datasets" j) Json.to_list
            |> Option.value ~default:[]
            |> List.filter_map (fun d ->
                   Option.bind (Json.member "name" d) Json.to_str));
          let sel, mrr = or_fail "query" (Client.query c ~name:"narrow" ~k:3) in
          Alcotest.(check (list int)) "selection" sel0 sel;
          Alcotest.check exact_float "mrr" mrr0 mrr));
  Sys.remove wide;
  Sys.remove path

(* a StoredList cap below 1 is refused up front, not left to fail every
   build *)
let test_config_rejects_max_length () =
  List.iter
    (fun m ->
      match Server.config ~max_length:m ~socket_path:"unused.sock" () with
      | _ -> Alcotest.failf "max_length %d accepted" m
      | exception Invalid_argument _ -> ())
    [ 0; -1 ];
  ignore (Server.config ~max_length:1 ~socket_path:"unused.sock" ())

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
          (* an old client's "shards" field is ignored: its load registers
             an exact dataset, listed without a shards field, that takes
             updates *)
          ignore
            (or_fail "load with shards"
               (Client.request c
                  (Printf.sprintf
                     {|{"op":"load","name":"old","path":%s,"shards":4}|}
                     (Json.to_string (Json.Str path)))));
          or_fail "wait old" (Client.wait_ready c ~name:"old");
          let old =
            Option.bind
              (Json.member "datasets" (or_fail "list" (Client.list_datasets c)))
              Json.to_list
            |> Option.value ~default:[]
            |> List.find (fun d ->
                   Option.bind (Json.member "name" d) Json.to_str = Some "old")
          in
          Alcotest.(check (option (float 0.))) "old: exact" (Some 0.)
            (Option.bind (Json.member "approx" old) Json.to_float);
          Alcotest.(check bool) "old: no shards field" true
            (Json.member "shards" old = None);
          Alcotest.(check int) "old: insert applied" n
            (or_fail "insert old"
               (Client.insert c ~name:"old" ~point:[| 0.99; 0.98; 0.97 |]));
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

(* An exact load certifies only the happy points GeoGreedy takes, so
   [list] has no happy count for it; the first skyline-entering insert
   completes the screen, and the count is then the live skyline's. *)
let test_list_happy_count () =
  let path = write_csv ~name:"hc" ~n:60 ~d:3 ~seed:41 in
  let base = (Dataset.normalize (Csv_io.load path)).Dataset.points in
  let happy_field c =
    let j = or_fail "list" (Client.list_datasets c) in
    let d0 =
      List.hd
        (Option.bind (Json.member "datasets" j) Json.to_list
        |> Option.value ~default:[])
    in
    Json.member "happy" d0
  in
  with_server (fun ~socket_path _server ->
      with_client ~socket_path (fun c ->
          load_and_wait c ~name:"hc" ~path;
          Alcotest.(check bool) "fresh exact load: happy is null" true
            (happy_field c = Some Json.Null);
          let p = [| 0.99; 0.98; 0.97 |] in
          ignore (or_fail "insert" (Client.insert c ~name:"hc" ~point:p));
          let live = Array.append base [| p |] in
          let sky = Array.map (fun i -> live.(i)) (Skyline.naive live) in
          Alcotest.(check (option int)) "after a skyline-entering insert"
            (Some (Array.length (Happy.happy_points sky)))
            (Option.bind (happy_field c) Json.to_int)));
  Sys.remove path

(* a dataset emptied by deletes: query and mrr answer the empty selection,
   rank_regret a structured [empty_dataset] error that is counted and
   never cached *)
let test_rank_regret_empty_dataset () =
  let path = Filename.temp_file "kregret_serve_empty" ".csv" in
  Out_channel.with_open_text path (fun oc ->
      output_string oc "0.5,0.9\n0.9,0.5\n");
  Testutil.recording @@ fun () ->
  with_server (fun ~socket_path _server ->
      with_client ~socket_path (fun c ->
          load_and_wait c ~name:"t" ~path;
          List.iter
            (fun id ->
              Alcotest.(check bool) "delete applies" true
                (or_fail "delete" (Client.delete c ~name:"t" ~id)))
            [ 0; 1 ];
          let sel, mrr = or_fail "query" (Client.query c ~name:"t" ~k:2) in
          Alcotest.(check (list int)) "query: empty selection" [] sel;
          Alcotest.check exact_float "query: mrr 0" 0. mrr;
          Alcotest.check exact_float "mrr: 0" 0.
            (or_fail "mrr" (Client.mrr c ~name:"t" ~k:2));
          (* a fresh stats reply per read *)
          let stat name =
            stats_counter (or_fail "stats" (Client.stats c)) name
          in
          let errors = stat "serve.errors" in
          let insertions = stat "serve.cache.insertions" in
          for _ = 1 to 2 do
            Alcotest.(check string) "rank_regret: empty_dataset"
              {|{"ok":false,"error":{"code":"empty_dataset","message":"dataset \"t\" has no live points"}}|}
              (or_fail "rank_regret"
                 (Client.request_raw c
                    {|{"op":"rank_regret","name":"t","k":2}|}))
          done;
          Alcotest.(check int) "both refusals counted" (errors + 2)
            (stat "serve.errors");
          Alcotest.(check int) "refusals not cached" insertions
            (stat "serve.cache.insertions")));
  Sys.remove path

(* Cached answers belong to one registration. Two names loaded from one
   CSV and updated with different points up to the same epoch each answer
   their own dataset, and so does a name re-loaded with the bytes it had
   before it was mutated: equal fingerprint, ε, epoch, k and family must
   not mean a shared cache row. *)
let test_cache_rows_per_registration () =
  let path = write_csv ~name:"twins" ~n:60 ~d:3 ~seed:43 in
  let other = write_csv ~name:"other" ~n:50 ~d:3 ~seed:44 in
  let base = (Dataset.normalize (Csv_io.load path)).Dataset.points in
  let n = Array.length base in
  let k = 4 and p = [| 1.; 1.; 1. |] and q = [| 1.; 1.; 0.9 |] in
  with_server (fun ~socket_path _server ->
      with_client ~socket_path (fun c ->
          let insert name point =
            Alcotest.(check int) (name ^ ": insert id") n
              (or_fail "insert" (Client.insert c ~name ~point))
          in
          let check what name point =
            let live =
              Array.append (Array.mapi (fun i v -> (i, v)) base) [| (n, point) |]
            in
            let sel_ref, mrr_ref = expected_of_live live ~k in
            let sel, mrr = or_fail "query" (Client.query c ~name ~k) in
            Alcotest.(check (list int)) (what ^ ": own selection") sel_ref sel;
            Alcotest.check exact_float (what ^ ": own mrr") mrr_ref mrr
          in
          load_and_wait c ~name:"a" ~path;
          load_and_wait c ~name:"b" ~path;
          insert "a" p;
          insert "b" q;
          check "a" "a" p;
          check "b, same file and epoch as a" "b" q;
          load_and_wait c ~name:"a" ~path:other;
          ignore (or_fail "query other" (Client.query c ~name:"a" ~k));
          load_and_wait c ~name:"a" ~path;
          insert "a" q;
          check "a, re-loaded" "a" q));
  List.iter Sys.remove [ path; other ]

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
  (* the load is accepted, but ε = 0.001 at d = 4 asks for a direction
     net of about 1.35e10 directions, past Kernel.net's cap, so the
     background build fails deterministically *)
  let st = Testutil.test_rng 61 in
  let points = Array.init 8 (fun _ -> Testutil.random_point st 4) in
  let path = Filename.temp_file "kregret_serve_fine" ".csv" in
  Csv_io.save path (Dataset.create ~name:"fine" points);
  let reg = Serve.Registry.create () in
  let load () = Serve.Registry.load ~approx:0.001 reg ~name:"fine" ~path in
  Fun.protect ~finally:(fun () -> Serve.Registry.shutdown reg) (fun () ->
      ignore (or_fail "first load" (load ()));
      let rec wait_failed tries =
        if tries = 0 then Alcotest.fail "build never failed"
        else
          match Serve.Registry.find reg "fine" with
          | Some { Serve.Registry.status = Serve.Registry.Failed m; _ } ->
              Alcotest.(check bool)
                (Printf.sprintf "fails at the net cap: %s" m)
                true
                (Testutil.contains m "exceed the cap")
          | Some { Serve.Registry.status = Serve.Registry.Ready _; _ } ->
              Alcotest.fail "an over-cap build unexpectedly succeeded"
          | _ ->
              Thread.delay 0.02;
              wait_failed (tries - 1)
      in
      wait_failed 500;
      (* the re-load re-enqueues instead of parroting the cached failure *)
      let info = or_fail "re-load" (load ()) in
      (match info.Serve.Registry.status with
      | Serve.Registry.Building -> ()
      | Serve.Registry.Failed _ ->
          Alcotest.fail "re-load returned the stale failure without retrying"
      | Serve.Registry.Ready _ ->
          Alcotest.fail "an over-cap build cannot be ready");
      (* the retry runs to its (deterministic) failure, not limbo *)
      wait_failed 500);
  Sys.remove path

(* a re-load of a mutated dataset rebuilds from the file and drops the
   updates, even when the bytes are unchanged: the mutated entry is not
   joined, so the re-load is a new registration and none of the mutated
   state (rows, ids, cached answers) is served afterwards *)
let test_reload_mutated_drops_updates () =
  let path = write_csv ~name:"seeded" ~n:4 ~d:2 ~seed:67 in
  let dir = direct_of_csv path in
  let k = 3 in
  let listed c key =
    let j = or_fail "list" (Client.list_datasets c) in
    Option.bind (Json.member "datasets" j) Json.to_list
    |> Option.value ~default:[]
    |> List.find (fun d ->
           Option.bind (Json.member "name" d) Json.to_str = Some "m")
    |> Json.member key
  in
  with_server (fun ~socket_path _server ->
      with_client ~socket_path (fun c ->
          load_and_wait c ~name:"m" ~path;
          let sel0, mrr0 = or_fail "query" (Client.query c ~name:"m" ~k) in
          let sel_ref, mrr_ref = direct_answer dir ~k in
          Alcotest.(check (list int)) "fresh load answers the file" sel_ref sel0;
          Alcotest.check exact_float "fresh load mrr" mrr_ref mrr0;
          let id =
            or_fail "insert" (Client.insert c ~name:"m" ~point:[| 0.99; 0.99 |])
          in
          Alcotest.(check int) "insert id continues the rows" 4 id;
          Alcotest.(check bool) "the insert is answered" true
            (List.mem id (fst (or_fail "query" (Client.query c ~name:"m" ~k))));
          let j = or_fail "re-load" (Client.load c ~name:"m" ~path) in
          Alcotest.(check (option string)) "re-load rebuilds" (Some "building")
            (Option.bind (Json.member "status" j) Json.to_str);
          or_fail "wait_ready" (Client.wait_ready c ~name:"m");
          Alcotest.(check (option int)) "live is the file's rows" (Some 4)
            (Option.bind (listed c "live") Json.to_int);
          Alcotest.(check (option bool)) "not mutated" (Some false)
            (Option.bind (listed c "mutated") Json.to_bool);
          let sel, mrr = or_fail "query" (Client.query c ~name:"m" ~k) in
          Alcotest.(check (list int)) "updates dropped" sel_ref sel;
          Alcotest.check exact_float "mrr of the file" mrr_ref mrr;
          Alcotest.(check int) "ids restart after the file's rows" 4
            (or_fail "insert" (Client.insert c ~name:"m" ~point:[| 0.99; 0.99 |]))));
  Sys.remove path

(* ---- event-driven poller: connection lifecycle ---------------------------- *)

(* the regression this guards: the old thread-per-connection server appended
   every accepted connection to [t.conns] and never removed it, so state
   grew with history. The poller keeps a live table only: after 10k
   sequential connect/close cycles the table must be bounded by concurrency
   (here: ~1), while the [serve.connections] counter records the full
   history. *)
let test_connection_churn () =
  Testutil.recording @@ fun () ->
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
      let accepted = counter "serve.connections" in
      Alcotest.(check bool)
        (Printf.sprintf "accepted the full history (%d)" accepted)
        true (accepted >= churn);
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
          (* an approximate dataset is static: every update verb is
             rejected with a structured code *)
          (match Client.insert c ~name:"apx" ~point:[| 0.9; 0.8; 0.7 |] with
          | Ok _ -> Alcotest.fail "insert into an approx dataset must fail"
          | Error m ->
              Alcotest.(check bool)
                (Printf.sprintf "static_dataset on insert (got %s)" m)
                true
                (Testutil.contains m "static_dataset"));
          (match Client.delete c ~name:"apx" ~id:0 with
          | Ok _ -> Alcotest.fail "delete on an approx dataset must fail"
          | Error m ->
              Alcotest.(check bool) "static_dataset on delete" true
                (Testutil.contains m "static_dataset"));
          (match Client.flush c ~name:"apx" with
          | Ok _ -> Alcotest.fail "flush on an approx dataset must fail"
          | Error m ->
              Alcotest.(check bool) "static_dataset on flush" true
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

(* ---- who answers: the IO thread, a worker, the registry worker ------------ *)


let write_anti_correlated ~n ~d ~seed =
  let ds =
    Kregret_dataset.Generator.anti_correlated (Kregret_dataset.Rng.create seed)
      ~n ~d
  in
  let path = Filename.temp_file "kregret_serve_test" ".csv" in
  Csv_io.save path ds;
  path

(* a raw connection, past its hello, for pipelining and for watching when
   a reply arrives *)
let raw_session socket_path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket_path);
  let r = Protocol.reader fd in
  (match Protocol.read_line r ~max:Protocol.default_max_line with
  | `Line l when l = Protocol.hello -> ()
  | _ -> Alcotest.fail "raw connection: no hello");
  (fd, r)

let read_reply r =
  match Protocol.read_line r ~max:Protocol.default_max_line with
  | `Line l -> l
  | `Eof -> Alcotest.fail "server closed the connection"
  | `Too_long -> Alcotest.fail "oversized reply"
  | `Error m -> Alcotest.failf "receive: %s" m

let send fd frame = or_fail "send" (Protocol.write_line fd frame)

let field_of reply path =
  match Json.parse reply with
  | Error m -> Alcotest.failf "unparsable reply %S: %s" reply m
  | Ok j ->
      List.fold_left (fun j f -> Option.bind j (Json.member f)) (Some j) path

(* The one handler worker computes a cold rank table; a cached read on
   another connection is answered by the IO thread meanwhile. *)
let test_hit_while_workers_busy () =
  let big = write_anti_correlated ~n:20_000 ~d:5 ~seed:3 in
  let small = write_csv ~name:"small" ~n:80 ~d:3 ~seed:31 in
  with_server ~workers:1 (fun ~socket_path _server ->
      with_client ~socket_path (fun c ->
          load_and_wait c ~name:"big" ~path:big;
          load_and_wait c ~name:"small" ~path:small;
          ignore (or_fail "prime" (Client.query c ~name:"small" ~k:3));
          let fd, r = raw_session socket_path in
          send fd {|{"op":"rank_regret","name":"big","k":4}|};
          (* let the worker take it *)
          Thread.delay 0.2;
          let hit = or_fail "hit" (Client.query_json c ~name:"small" ~k:3) in
          let pending, _, _ = Unix.select [ fd ] [] [] 0. in
          Alcotest.(check (option bool))
            "a cache hit" (Some true)
            (Option.bind (Json.member "cached" hit) Json.to_bool);
          Alcotest.(check bool)
            "answered while the only worker still computes" true (pending = []);
          Alcotest.(check (option bool))
            "the rank table finishes" (Some true)
            (Option.bind (field_of (read_reply r) [ "ok" ]) Json.to_bool);
          Unix.close fd));
  List.iter Sys.remove [ big; small ]

(* Every path in one write: a hit (IO thread), a miss (worker), an insert
   (registry worker), a hit again, a malformed frame and a ping. The
   replies keep request order and match the frames sent one at a time. *)
let test_pipelined_order () =
  let path = write_csv ~name:"p" ~n:120 ~d:3 ~seed:41 in
  let frames =
    [
      {|{"op":"query","name":"p","k":3}|};
      {|{"op":"query","name":"p","k":5}|};
      (* dominated by every row: the stored list and its epoch stay *)
      {|{"op":"insert","name":"p","point":[0.01,0.01,0.01]}|};
      {|{"op":"query","name":"p","k":3}|};
      "this is not json";
      {|{"op":"ping"}|};
    ]
  in
  let session f =
    with_server (fun ~socket_path _server ->
        with_client ~socket_path (fun c ->
            load_and_wait c ~name:"p" ~path;
            ignore (or_fail "prime" (Client.query c ~name:"p" ~k:3));
            f ~socket_path c))
  in
  let one_at_a_time =
    session (fun ~socket_path:_ c ->
        List.map (fun f -> or_fail f (Client.request_raw c f)) frames)
  in
  let pipelined =
    session (fun ~socket_path _ ->
        let fd, r = raw_session socket_path in
        send fd (String.concat "\n" frames);
        let replies = List.map (fun _ -> read_reply r) frames in
        Unix.close fd;
        replies)
  in
  Alcotest.(check (list string)) "pipelined == one at a time" one_at_a_time
    pipelined;
  let flag i path = Option.bind (field_of (List.nth pipelined i) path) Json.to_bool in
  let code i = Option.bind (field_of (List.nth pipelined i) [ "error"; "code" ]) Json.to_str in
  Alcotest.(check (list (option bool)))
    "hit, miss, insert applied, hit"
    [ Some true; Some false; Some true; Some true ]
    [ flag 0 [ "cached" ]; flag 1 [ "cached" ]; flag 2 [ "applied" ]; flag 3 [ "cached" ] ];
  Alcotest.(check (option string)) "malformed" (Some "parse_error") (code 4);
  Alcotest.(check string) "ping" {|{"ok":true,"op":"ping"}|} (List.nth pipelined 5);
  Sys.remove path

(* An update queued behind a build when the server stops gets the
   structured shutdown error, and the stop returns. *)
let test_shutdown_with_queued_update () =
  let small = write_csv ~name:"small" ~n:80 ~d:3 ~seed:51 in
  let slow = write_anti_correlated ~n:800 ~d:7 ~seed:5 in
  let socket_path = Server.temp_socket_path () in
  let server = Server.start_exn (Server.config ~socket_path ()) in
  let reply =
    with_client ~socket_path (fun c ->
        load_and_wait c ~name:"small" ~path:small;
        (* a d = 7 build keeps the registry worker busy for a while *)
        ignore (or_fail "load slow" (Client.load c ~name:"slow" ~path:slow));
        let fd, r = raw_session socket_path in
        send fd {|{"op":"insert","name":"small","point":[0.9,0.9,0.9]}|};
        (* let the insert reach the registry queue *)
        Thread.delay 0.2;
        let stopped = Atomic.make false in
        let stopper =
          Thread.create
            (fun () ->
              Server.stop server;
              Atomic.set stopped true)
            ()
        in
        let reply = read_reply r in
        let deadline = Unix.gettimeofday () +. 60. in
        while (not (Atomic.get stopped)) && Unix.gettimeofday () < deadline do
          Thread.delay 0.05
        done;
        Alcotest.(check bool) "Server.stop returned" true (Atomic.get stopped);
        Thread.join stopper;
        Unix.close fd;
        reply)
  in
  Alcotest.(check string) "the queued update's structured error"
    {|{"ok":false,"error":{"code":"internal","message":"registry is shut down"}}|}
    reply;
  List.iter Sys.remove [ small; slow ]

(* Past the caps a connection gets a structured refusal instead of taking
   the IO loop down (select cannot watch an fd past FD_SETSIZE). In one
   process the clients' own fds share the table, so the descriptor cap
   may refuse some before the count cap does. *)
let test_connection_cap () =
  with_server (fun ~socket_path server ->
      let n = Serve.Poller.max_connections + 20 in
      let deadline = Unix.gettimeofday () +. 10. in
      (* a full backlog would block a connect for good on a dead loop:
         connect without blocking, and retry while the loop accepts *)
      let rec connect fd =
        match Unix.connect fd (Unix.ADDR_UNIX socket_path) with
        | () -> true
        | exception Unix.Unix_error (Unix.EAGAIN, _, _)
          when Unix.gettimeofday () < deadline ->
            Thread.delay 0.001;
            connect fd
        | exception Unix.Unix_error _ -> false
      in
      let fds =
        List.init n (fun _ ->
            let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
            Unix.set_nonblock fd;
            let connected = connect fd in
            Unix.clear_nonblock fd;
            (fd, connected))
      in
      let firsts =
        List.map
          (fun (fd, connected) ->
            (* no select here: the test's own fds pass FD_SETSIZE too *)
            Unix.setsockopt_float fd Unix.SO_RCVTIMEO
              (Float.max 0.01 (deadline -. Unix.gettimeofday ()));
            if not connected then "(not accepted)"
            else
              match Protocol.read_line (Protocol.reader fd) ~max:4096 with
              | `Line l -> l
              | `Eof -> "(closed)"
              | `Too_long | `Error _ -> "(silent)")
          fds
      in
      let fds = List.map fst fds in
      let live = Server.live_connections server in
      List.iter Unix.close fds;
      let served = List.filter (String.equal Protocol.hello) firsts in
      let refused =
        List.filter
          (fun l ->
            Option.bind (field_of l [ "error"; "code" ]) Json.to_str
            = Some "too_many_connections")
          firsts
      in
      Alcotest.(check int) "every socket served or refused" n
        (List.length served + List.length refused);
      Alcotest.(check bool)
        (Printf.sprintf "at least the 20 extra refused (%d)" (List.length refused))
        true
        (List.length refused >= 20);
      Alcotest.(check bool)
        (Printf.sprintf "live connections within the cap (%d)" live)
        true
        (live <= Serve.Poller.max_connections);
      let rec settle tries =
        if Server.live_connections server > 0 && tries > 0 then begin
          Thread.delay 0.01;
          settle (tries - 1)
        end
      in
      settle 500;
      with_client ~socket_path (fun c ->
          ignore (or_fail "ping after the refusals" (Client.ping c))))

(* A client that pipelines cached reads and never reads stops being
   answered at the high-water mark; once it reads, every reply arrives in
   order, byte-equal to the same reads answered one at a time. *)
let test_unread_output_bounded () =
  let path = write_csv ~name:"u" ~n:120 ~d:3 ~seed:61 in
  with_server (fun ~socket_path server ->
      with_client ~socket_path (fun c ->
          load_and_wait c ~name:"u" ~path;
          let frames =
            [| {|{"op":"query","name":"u","k":3}|}; {|{"op":"mrr","name":"u","k":4}|} |]
          in
          let expected =
            Array.map
              (fun f ->
                ignore (or_fail "prime" (Client.request_raw c f));
                or_fail "cached" (Client.request_raw c f))
              frames
          in
          let n = 40_000 in
          let fd, r = raw_session socket_path in
          let burst =
            String.concat "\n" (List.init n (fun i -> frames.(i mod 2)))
          in
          (* the server stops reading once paused: write from a thread *)
          let writer = Thread.create (fun () -> send fd burst) () in
          let deadline = Unix.gettimeofday () +. 20. in
          while
            Server.unsent_peak server < Serve.Poller.max_unsent
            && Unix.gettimeofday () < deadline
          do
            Thread.delay 0.01
          done;
          (* paused: nothing more piles up *)
          Thread.delay 0.2;
          let peak = Server.unsent_peak server in
          let longest = Array.fold_left (fun m e -> max m (String.length e + 1)) 0 expected in
          Alcotest.(check bool)
            (Printf.sprintf "the mark was reached (peak %d)" peak)
            true
            (peak >= Serve.Poller.max_unsent);
          Alcotest.(check bool)
            (Printf.sprintf "buffered output <= mark + one reply (peak %d)" peak)
            true
            (peak <= Serve.Poller.max_unsent + longest);
          for i = 0 to n - 1 do
            let got = read_reply r in
            if got <> expected.(i mod 2) then
              Alcotest.failf "reply %d: %S, expected %S" i got expected.(i mod 2)
          done;
          Thread.join writer;
          Unix.close fd));
  Sys.remove path

(* ---- golden wire transcript ----------------------------------------------- *)

(* The exact bytes of every read reply and every read-path error, pinned.
   One seeded CSV is loaded solo and as an ε = 0.2 kernel; query, mrr
   and rank_regret run at k ∈ {1, 3, 20}, cold then cached; then
   not_found, k = 0, missing k, an insert into the static ε tier, and
   stale_dataset once the CSV is rewritten. The CSV's temp path
   prints as PATH. [list] is left out: it carries build_seconds. *)
let golden_requests ~path =
  let load name extra =
    Printf.sprintf {|{"op":"load","name":"%s","path":%s%s}|} name
      (Json.to_string (Json.Str path))
      extra
  in
  let read op name k = Printf.sprintf {|{"op":"%s","name":"%s","k":%d}|} op name k in
  let verbs = [ "query"; "mrr"; "rank_regret" ] in
  let names = [ "solo"; "apx" ] in
  let each f = List.concat_map f verbs in
  let loads = [ load "solo" ""; load "apx" {|,"approx":0.2|} ] in
  let reads =
    List.concat_map
      (fun name ->
        each (fun op ->
            List.concat_map
              (fun k -> [ read op name k; read op name k ])
              [ 1; 3; 20 ]))
      names
  in
  let errors =
    each (fun op -> [ read op "nope" 3 ])
    @ each (fun op -> [ read op "solo" 0 ])
    @ each (fun op -> [ Printf.sprintf {|{"op":"%s","name":"solo"}|} op ])
    @ [ {|{"op":"insert","name":"apx","point":[0.5,0.5,0.5]}|} ]
  in
  let stale =
    List.concat_map (fun name -> each (fun op -> [ read op name 3 ])) names
  in
  (loads, reads @ errors, stale)

let golden_transcript =
  {golden|
> {"op":"load","name":"solo","path":"PATH"}
< {"ok":true,"op":"load","name":"solo","status":"building","fingerprint":"3db406e14bdb2587","n":80,"d":3,"approx":0}
> {"op":"load","name":"apx","path":"PATH","approx":0.2}
< {"ok":true,"op":"load","name":"apx","status":"building","fingerprint":"3db406e14bdb2587","n":80,"d":3,"approx":0.20000000000000001}
> {"op":"query","name":"solo","k":1}
< {"ok":true,"op":"query","name":"solo","k":1,"mrr":0.39127869596913889,"cached":false,"coalesced":false,"selection":[26]}
> {"op":"query","name":"solo","k":1}
< {"ok":true,"op":"query","name":"solo","k":1,"mrr":0.39127869596913889,"cached":true,"coalesced":false,"selection":[26]}
> {"op":"query","name":"solo","k":3}
< {"ok":true,"op":"query","name":"solo","k":3,"mrr":0.28890366769562181,"cached":false,"coalesced":false,"selection":[26,23,36]}
> {"op":"query","name":"solo","k":3}
< {"ok":true,"op":"query","name":"solo","k":3,"mrr":0.28890366769562181,"cached":true,"coalesced":false,"selection":[26,23,36]}
> {"op":"query","name":"solo","k":20}
< {"ok":true,"op":"query","name":"solo","k":20,"mrr":0,"cached":false,"coalesced":false,"selection":[26,23,36,11,18,73,53,57]}
> {"op":"query","name":"solo","k":20}
< {"ok":true,"op":"query","name":"solo","k":20,"mrr":0,"cached":true,"coalesced":false,"selection":[26,23,36,11,18,73,53,57]}
> {"op":"mrr","name":"solo","k":1}
< {"ok":true,"op":"mrr","name":"solo","k":1,"mrr":0.39127869596913889,"cached":false,"coalesced":false}
> {"op":"mrr","name":"solo","k":1}
< {"ok":true,"op":"mrr","name":"solo","k":1,"mrr":0.39127869596913889,"cached":true,"coalesced":false}
> {"op":"mrr","name":"solo","k":3}
< {"ok":true,"op":"mrr","name":"solo","k":3,"mrr":0.28890366769562181,"cached":false,"coalesced":false}
> {"op":"mrr","name":"solo","k":3}
< {"ok":true,"op":"mrr","name":"solo","k":3,"mrr":0.28890366769562181,"cached":true,"coalesced":false}
> {"op":"mrr","name":"solo","k":20}
< {"ok":true,"op":"mrr","name":"solo","k":20,"mrr":0,"cached":false,"coalesced":false}
> {"op":"mrr","name":"solo","k":20}
< {"ok":true,"op":"mrr","name":"solo","k":20,"mrr":0,"cached":true,"coalesced":false}
> {"op":"rank_regret","name":"solo","k":1}
< {"ok":true,"op":"rank_regret","name":"solo","k":1,"selection":[73],"rank_lo":16,"rank_hi":21,"exact":false,"cached":false,"coalesced":false}
> {"op":"rank_regret","name":"solo","k":1}
< {"ok":true,"op":"rank_regret","name":"solo","k":1,"selection":[73],"rank_lo":16,"rank_hi":21,"exact":false,"cached":true,"coalesced":false}
> {"op":"rank_regret","name":"solo","k":3}
< {"ok":true,"op":"rank_regret","name":"solo","k":3,"selection":[73,12,11],"rank_lo":7,"rank_hi":15,"exact":false,"cached":false,"coalesced":false}
> {"op":"rank_regret","name":"solo","k":3}
< {"ok":true,"op":"rank_regret","name":"solo","k":3,"selection":[73,12,11],"rank_lo":7,"rank_hi":15,"exact":false,"cached":true,"coalesced":false}
> {"op":"rank_regret","name":"solo","k":20}
< {"ok":true,"op":"rank_regret","name":"solo","k":20,"selection":[73,12,11,18,23,26,13,36,37,53,57,61],"rank_lo":1,"rank_hi":2,"exact":false,"cached":false,"coalesced":false}
> {"op":"rank_regret","name":"solo","k":20}
< {"ok":true,"op":"rank_regret","name":"solo","k":20,"selection":[73,12,11,18,23,26,13,36,37,53,57,61],"rank_lo":1,"rank_hi":2,"exact":false,"cached":true,"coalesced":false}
> {"op":"query","name":"apx","k":1}
< {"ok":true,"op":"query","name":"apx","k":1,"mrr":0.39127869596913889,"cached":false,"coalesced":false,"selection":[26]}
> {"op":"query","name":"apx","k":1}
< {"ok":true,"op":"query","name":"apx","k":1,"mrr":0.39127869596913889,"cached":true,"coalesced":false,"selection":[26]}
> {"op":"query","name":"apx","k":3}
< {"ok":true,"op":"query","name":"apx","k":3,"mrr":0.28890366769562181,"cached":false,"coalesced":false,"selection":[26,23,36]}
> {"op":"query","name":"apx","k":3}
< {"ok":true,"op":"query","name":"apx","k":3,"mrr":0.28890366769562181,"cached":true,"coalesced":false,"selection":[26,23,36]}
> {"op":"query","name":"apx","k":20}
< {"ok":true,"op":"query","name":"apx","k":20,"mrr":0,"cached":false,"coalesced":false,"selection":[26,23,36,11,18,73]}
> {"op":"query","name":"apx","k":20}
< {"ok":true,"op":"query","name":"apx","k":20,"mrr":0,"cached":true,"coalesced":false,"selection":[26,23,36,11,18,73]}
> {"op":"mrr","name":"apx","k":1}
< {"ok":true,"op":"mrr","name":"apx","k":1,"mrr":0.39127869596913889,"cached":false,"coalesced":false}
> {"op":"mrr","name":"apx","k":1}
< {"ok":true,"op":"mrr","name":"apx","k":1,"mrr":0.39127869596913889,"cached":true,"coalesced":false}
> {"op":"mrr","name":"apx","k":3}
< {"ok":true,"op":"mrr","name":"apx","k":3,"mrr":0.28890366769562181,"cached":false,"coalesced":false}
> {"op":"mrr","name":"apx","k":3}
< {"ok":true,"op":"mrr","name":"apx","k":3,"mrr":0.28890366769562181,"cached":true,"coalesced":false}
> {"op":"mrr","name":"apx","k":20}
< {"ok":true,"op":"mrr","name":"apx","k":20,"mrr":0,"cached":false,"coalesced":false}
> {"op":"mrr","name":"apx","k":20}
< {"ok":true,"op":"mrr","name":"apx","k":20,"mrr":0,"cached":true,"coalesced":false}
> {"op":"rank_regret","name":"apx","k":1}
< {"ok":true,"op":"rank_regret","name":"apx","k":1,"selection":[73],"rank_lo":16,"rank_hi":21,"exact":false,"cached":false,"coalesced":false}
> {"op":"rank_regret","name":"apx","k":1}
< {"ok":true,"op":"rank_regret","name":"apx","k":1,"selection":[73],"rank_lo":16,"rank_hi":21,"exact":false,"cached":true,"coalesced":false}
> {"op":"rank_regret","name":"apx","k":3}
< {"ok":true,"op":"rank_regret","name":"apx","k":3,"selection":[73,23,11],"rank_lo":6,"rank_hi":13,"exact":false,"cached":false,"coalesced":false}
> {"op":"rank_regret","name":"apx","k":3}
< {"ok":true,"op":"rank_regret","name":"apx","k":3,"selection":[73,23,11],"rank_lo":6,"rank_hi":13,"exact":false,"cached":true,"coalesced":false}
> {"op":"rank_regret","name":"apx","k":20}
< {"ok":true,"op":"rank_regret","name":"apx","k":20,"selection":[73,23,11,18,26,36],"rank_lo":2,"rank_hi":5,"exact":false,"cached":false,"coalesced":false}
> {"op":"rank_regret","name":"apx","k":20}
< {"ok":true,"op":"rank_regret","name":"apx","k":20,"selection":[73,23,11,18,26,36],"rank_lo":2,"rank_hi":5,"exact":false,"cached":true,"coalesced":false}
> {"op":"query","name":"nope","k":3}
< {"ok":false,"error":{"code":"not_found","message":"dataset \"nope\" is not loaded"}}
> {"op":"mrr","name":"nope","k":3}
< {"ok":false,"error":{"code":"not_found","message":"dataset \"nope\" is not loaded"}}
> {"op":"rank_regret","name":"nope","k":3}
< {"ok":false,"error":{"code":"not_found","message":"dataset \"nope\" is not loaded"}}
> {"op":"query","name":"solo","k":0}
< {"ok":false,"error":{"code":"bad_field","message":"\"k\" must be a positive integer (got 0)"}}
> {"op":"mrr","name":"solo","k":0}
< {"ok":false,"error":{"code":"bad_field","message":"\"k\" must be a positive integer (got 0)"}}
> {"op":"rank_regret","name":"solo","k":0}
< {"ok":false,"error":{"code":"bad_field","message":"\"k\" must be a positive integer (got 0)"}}
> {"op":"query","name":"solo"}
< {"ok":false,"error":{"code":"missing_field","message":"\"k\" is required"}}
> {"op":"mrr","name":"solo"}
< {"ok":false,"error":{"code":"missing_field","message":"\"k\" is required"}}
> {"op":"rank_regret","name":"solo"}
< {"ok":false,"error":{"code":"missing_field","message":"\"k\" is required"}}
> {"op":"insert","name":"apx","point":[0.5,0.5,0.5]}
< {"ok":false,"error":{"code":"static_dataset","message":"dataset \"apx\" is an ε-kernel approximation and static; re-load it without \"approx\" to update it"}}
> {"op":"query","name":"solo","k":3}
< {"ok":false,"error":{"code":"stale_dataset","message":"dataset \"solo\": PATH changed on disk since load (loaded 3db406e14bdb2587, file now hashes to 868e8b64e11f3f8e); re-load it"}}
> {"op":"mrr","name":"solo","k":3}
< {"ok":false,"error":{"code":"stale_dataset","message":"dataset \"solo\": PATH changed on disk since load (loaded 3db406e14bdb2587, file now hashes to 868e8b64e11f3f8e); re-load it"}}
> {"op":"rank_regret","name":"solo","k":3}
< {"ok":false,"error":{"code":"stale_dataset","message":"dataset \"solo\": PATH changed on disk since load (loaded 3db406e14bdb2587, file now hashes to 868e8b64e11f3f8e); re-load it"}}
> {"op":"query","name":"apx","k":3}
< {"ok":false,"error":{"code":"stale_dataset","message":"dataset \"apx\": PATH changed on disk since load (loaded 3db406e14bdb2587, file now hashes to 868e8b64e11f3f8e); re-load it"}}
> {"op":"mrr","name":"apx","k":3}
< {"ok":false,"error":{"code":"stale_dataset","message":"dataset \"apx\": PATH changed on disk since load (loaded 3db406e14bdb2587, file now hashes to 868e8b64e11f3f8e); re-load it"}}
> {"op":"rank_regret","name":"apx","k":3}
< {"ok":false,"error":{"code":"stale_dataset","message":"dataset \"apx\": PATH changed on disk since load (loaded 3db406e14bdb2587, file now hashes to 868e8b64e11f3f8e); re-load it"}}
|golden}

let test_golden_wire () =
  let path = write_csv ~name:"golden" ~n:80 ~d:3 ~seed:23 in
  let loads, reads, stale = golden_requests ~path in
  (* every occurrence of the temp path becomes PATH *)
  let hide line =
    let n = String.length path and b = Buffer.create (String.length line) in
    let rec go i =
      if i + n <= String.length line && String.sub line i n = path then begin
        Buffer.add_string b "PATH";
        go (i + n)
      end
      else if i < String.length line then begin
        Buffer.add_char b line.[i];
        go (i + 1)
      end
    in
    go 0;
    Buffer.contents b
  in
  with_server (fun ~socket_path _server ->
      with_client ~socket_path (fun c ->
          let send frame =
            let reply = or_fail frame (Client.request_raw c frame) in
            [ "> " ^ hide frame; "< " ^ hide reply ]
          in
          let loaded = List.concat_map send loads in
          List.iter
            (fun name -> or_fail name (Client.wait_ready c ~name))
            [ "solo"; "apx" ];
          let answered = List.concat_map send reads in
          let st = Testutil.test_rng 24 in
          Csv_io.save path
            (Dataset.create ~name:"golden"
               (Array.init 81 (fun _ -> Testutil.random_point st 3)));
          let actual = loaded @ answered @ List.concat_map send stale in
          let expected =
            String.split_on_char '\n' (String.trim golden_transcript)
          in
          Alcotest.(check int) "transcript length" (List.length expected)
            (List.length actual);
          List.iteri
            (fun i (e, a) ->
              Alcotest.(check string) (Printf.sprintf "line %d" (i + 1)) e a)
            (List.combine expected actual)));
  Sys.remove path

(* A multi-second build of dataset B holds the registry worker. A
   dominated insert into A and its delete cannot move A's skyline, so the
   IO thread applies and answers both while B still builds. A repair of
   A waits behind the build, and one writer per dataset holds: a cheap
   insert sent on another connection meanwhile queues behind the repair
   instead of overtaking it. *)
let test_build_does_not_stall_cheap_updates () =
  let small = write_csv ~name:"a" ~n:200 ~d:3 ~seed:61 in
  let slow = write_anti_correlated ~n:2_000 ~d:9 ~seed:5 in
  (* B's build runs GeoGreedy to k = 32 at d = 9: about 2 s on a 2-core
     VM *)
  with_server ~max_length:32 (fun ~socket_path _server ->
      with_client ~socket_path (fun c ->
          load_and_wait c ~name:"a" ~path:small;
          ignore (or_fail "load b" (Client.load c ~name:"b" ~path:slow));
          (* every row of A has coordinates >= 0.01 *)
          let id =
            or_fail "insert"
              (Client.insert c ~name:"a" ~point:[| 0.001; 0.001; 0.001 |])
          in
          Alcotest.(check bool) "the delete applies" true
            (or_fail "delete" (Client.delete c ~name:"a" ~id));
          let status name =
            Option.bind
              (Json.member "datasets" (or_fail "list" (Client.list_datasets c)))
              Json.to_list
            |> Option.value ~default:[]
            |> List.find_map (fun d ->
                   if Option.bind (Json.member "name" d) Json.to_str = Some name
                   then Option.bind (Json.member "status" d) Json.to_str
                   else None)
          in
          Alcotest.(check (option string)) "B still builds" (Some "building")
            (status "b");
          let fd1, r1 = raw_session socket_path
          and fd2, r2 = raw_session socket_path in
          (* dominates every row of A *)
          send fd1 {|{"op":"insert","name":"a","point":[1,1,1]}|};
          Thread.delay 0.1;
          send fd2 {|{"op":"insert","name":"a","point":[0.001,0.001,0.001]}|};
          let repair = read_reply r1 and cheap = read_reply r2 in
          let field reply f = Option.bind (field_of reply [ f ]) Json.to_int in
          Alcotest.(check (list (option int)))
            "the repair, then the insert behind it: ids, epoch, live"
            [ Some 201; Some 202; field repair "epoch"; Some 202 ]
            [
              field repair "id"; field cheap "id"; field cheap "epoch";
              field cheap "live";
            ];
          List.iter Unix.close [ fd1; fd2 ]));
  List.iter Sys.remove [ small; slow ]


(* The IO thread runs no stored-list pass, re-screen, re-entry scan or
   compaction: an update that moves the skyline, and a flush, are counted
   on the registry worker; the rest are applied in place. *)
let test_update_paths () =
  let path = write_csv ~name:"paths" ~n:120 ~d:3 ~seed:71 in
  Testutil.recording @@ fun () ->
  with_server (fun ~socket_path _server ->
      with_client ~socket_path (fun c ->
          load_and_wait c ~name:"p" ~path;
          let counted () =
            ( counter "serve.registry.updates",
              counter "serve.registry.inline_updates",
              counter "serve.registry.update_failures" )
          in
          (* each reply's epoch against the one before it *)
          let last = ref None in
          let step what frame ~moves want =
            let reply = or_fail what (Client.request_raw c frame) in
            Alcotest.(check (triple int int int))
              (what ^ ": worker, in place, failures")
              want (counted ());
            match Option.bind (field_of reply [ "epoch" ]) Json.to_int with
            | None -> ()
            | Some e ->
                Option.iter
                  (fun e0 ->
                    Alcotest.(check bool) (what ^ ": the epoch moves") moves
                      (e <> e0))
                  !last;
                last := Some e
          in
          step "unknown-id delete" {|{"op":"delete","name":"p","id":1000000}|}
            ~moves:false (0, 1, 0);
          (* every row has coordinates >= 0.01: this is id 120 *)
          step "dominated insert"
            {|{"op":"insert","name":"p","point":[0.001,0.001,0.001]}|}
            ~moves:false (0, 2, 0);
          step "non-skyline delete" {|{"op":"delete","name":"p","id":120}|}
            ~moves:false (0, 3, 0);
          step "bad point" {|{"op":"insert","name":"p","point":[0.5,1.5,0.5]}|}
            ~moves:false (0, 3, 1);
          (* dominates every row: id 121 enters the skyline *)
          step "skyline insert" {|{"op":"insert","name":"p","point":[1,1,1]}|}
            ~moves:true (1, 3, 1);
          step "skyline delete" {|{"op":"delete","name":"p","id":121}|}
            ~moves:true (2, 3, 1);
          step "flush" {|{"op":"flush","name":"p"}|} ~moves:false (3, 3, 1)));
  Sys.remove path

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
    Alcotest.test_case "protocol: the reader drops the rest of an oversized \
                        frame"
      `Quick test_reader_drops_oversized_frame;
    Alcotest.test_case "protocol: truncated connections don't kill the server"
      `Quick test_truncated_connection;
    Alcotest.test_case "lifecycle: list/stats/evict over the wire" `Quick
      test_list_stats_evict;
    Alcotest.test_case "stats is the metrics document" `Quick
      test_stats_is_metrics_document;
    Alcotest.test_case "lifecycle: query races the background build" `Quick
      test_query_races_build;
    Alcotest.test_case "staleness: rewritten CSV is rejected, reload recovers"
      `Quick test_stale_dataset_rejected;
    Alcotest.test_case "lifecycle: load failures are structured" `Quick
      test_load_failures;
    Alcotest.test_case "lifecycle: a load wider than Dd.max_dim is refused"
      `Quick test_load_refuses_high_dim;
    Alcotest.test_case "lifecycle: config refuses a StoredList cap below 1"
      `Quick test_config_rejects_max_length;
    Alcotest.test_case "dynamic: insert/delete/flush verbs end to end" `Slow
      test_update_verbs_end_to_end;
    Alcotest.test_case "dynamic: list's happy count is null until the \
                        screen completes" `Quick
      test_list_happy_count;
    Alcotest.test_case "dynamic: rank_regret on an emptied dataset is a \
                        structured, uncached error" `Quick
      test_rank_regret_empty_dataset;
    Alcotest.test_case "cache: rows belong to one registration, across \
                        names and re-loads" `Quick
      test_cache_rows_per_registration;
    Alcotest.test_case "registry: concurrent loads of one file are idempotent"
      `Quick test_concurrent_load_idempotent;
    Alcotest.test_case "registry: failed builds are retried on re-load" `Quick
      test_failed_build_reload_retries;
    Alcotest.test_case "registry: re-load of a mutated dataset drops its \
                        updates" `Quick test_reload_mutated_drops_updates;
    Alcotest.test_case "poller: 10k-connection churn keeps live state bounded"
      `Slow test_connection_churn;
    Alcotest.test_case "transports: UDS and TCP sessions are byte-identical"
      `Quick test_transports_byte_identical;
    Alcotest.test_case "poller: shutdown under load cannot hang" `Quick
      test_shutdown_under_load;
    Alcotest.test_case "approx: served kernels bit-identical to offline, no \
                        exact/approx cache collisions" `Slow
      test_approx_load_end_to_end;
    Alcotest.test_case "golden: read replies and read-path errors are \
                        byte-identical to the pinned transcript" `Quick
      test_golden_wire;
    Alcotest.test_case "poller: a cache hit is answered while every worker \
                        computes" `Quick test_hit_while_workers_busy;
    Alcotest.test_case "poller: pipelined hit, miss, insert, error, ping \
                        keep request order" `Quick test_pipelined_order;
    Alcotest.test_case "registry: shutdown answers a queued update" `Quick
      test_shutdown_with_queued_update;
    Alcotest.test_case "poller: connections past the caps are refused, the \
                        server lives" `Quick test_connection_cap;
    Alcotest.test_case "poller: a client that never reads has bounded \
                        output" `Quick test_unread_output_bounded;
    Alcotest.test_case "registry: a build does not stall another dataset's \
                        cheap updates, which queue behind its repairs" `Quick
      test_build_does_not_stall_cheap_updates;
    Alcotest.test_case "registry: only skyline-moving updates and flushes \
                        run on the worker" `Quick test_update_paths;
  ]
