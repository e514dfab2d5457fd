(* kbench — the repository's end-to-end benchmark.

     kbench.exe --server EXE --workload W --seed N --seconds S --trace 0|1

   Spawns [EXE] (kregret_serve) as its own process with the pinned
   parameters (--jobs 2, --max-k 32, default --workers and cache), drives
   it from this one process over at most two Unix-domain connections and
   one thread, checks every answer against an in-process replay over the
   same CSV bytes, and prints one JSON result line last on stdout. Inputs
   (CSVs and update streams) derive from --seed only.

   Workloads. Each one reports every end-to-end metric: the phases the
   workload exists for get most of the time, the others run as short
   probes on its own datasets. After set-up a run is a series of rounds,
   each giving every timed phase a slice of --seconds, so that every
   metric samples the whole run (see [finalize] for how samples become a
   value).

   - hot-read: anti-correlated n=10^4, d=6. query/mrr with k cycling
     1..32 (64 keys, all cache hits after warm-up): a closed loop on two
     connections (read_qps) and an open loop at 8000 req/s (read_p50_ms).
     Probes: ε-kernel loads (n=5*10^4, d=3), rank_regret for k = 1..4 on a
     fresh load of n=2000, d=4, then answer-preserving writes on that dataset;
     every other round, a reload of the read dataset's CSV under another
     name (build_s, besides the set-up loads).
   - write-mix: anti-correlated n=10^4, d=4. An open-loop update stream at
     100/s on one connection (40% fresh inserts, 20% dominated inserts, 40%
     deletes of live ids) beside open-loop query reads at 1000/s on the
     other, each due at a seeded random point of its millisecond; every
     reply is checked against a [Dynamic] replay of the same stream.
     Probes: ε-kernel loads and rank_regret as in hot-read, and every round
     a reload of the CSV under another name.
     A read that arrives while the server repairs after an update waits for
     the repair (the registry worker and the request handlers share one
     OCaml domain), so read latency has a fast mode and a slow one. At
     200 updates/s a third to two fifths of the reads fell in the slow
     mode, and the median read flipped between the modes from slice to
     slice (read_p50_ms spread 18-27% over ten runs on a shared two-core
     host); at 100/s about a fifth do, and the median stays in the fast
     mode (5% spread on the same host). Reads at fixed phases to the
     updates would make the slow share jump in steps as repairs lengthen;
     random due times make it change smoothly.
   - cold-build: a server with nothing loaded. Exact load of n=10^4, d=6
     (build_s), ε=0.1 load of n=10^5, d=3 (approx_build_s), exact load of
     n=10^4, d=4 and an uncached rank_regret for each k = 1..4 (rrr_cold_s,
     the mean per answer). Probes: reads and answer-preserving writes on
     the d=4 dataset.

   End-to-end metrics (--trace 0): setup_s (spawn until the first timed
   request can go), build_s, approx_build_s, rrr_cold_s (client-observed,
   [list] polled at most 1 ms apart), read_qps, read_p50_ms, write_p50_ms
   (open-loop latencies are timed from when each request was due),
   peak_rss_mb (the server's VmHWM before shutdown) and ok_ratio (1 -
   failed, refused or error replies over requests attempted).
   read_p99_ms, write_p99_ms and approx_build_s are measured too but kept
   to the full record ([record_only]).

   A traced run (--trace 1) repeats the workload with the server's metrics
   export on, times each layer's public functions in-process on the same
   inputs, and prints the per-layer metrics; its full record carries the
   stage breakdowns and the tracing overhead. Full records (every metric
   with quartiles and sample counts, lateness of the open loops, machine
   facts) are appended to results.jsonl in the --dir work directory, and
   written to --out. *)

module Json = Kregret_serve.Json
module Protocol = Kregret_serve.Protocol
module Registry = Kregret_serve.Registry
module Lru = Kregret_serve.Lru
module Pool = Kregret_parallel.Pool
module Obs = Kregret_obs
module R = Reference

let now = Unix.gettimeofday

(* ---- what a run records ----------------------------------------------------- *)

type metric = { unit_ : string; value : float; samples : float array }

let e2e : (string * metric) list ref = ref []
let layers : (string * metric) list ref = ref []
let put table name unit_ value samples = table := (name, { unit_; value; samples }) :: !table
let metric name = (List.assoc name !e2e).value
let layer name = (List.assoc name !layers).value
let attempted = ref 0
let failed = ref 0
let mismatches = ref []

let mismatch fmt =
  Printf.ksprintf
    (fun m ->
      if List.length !mismatches < 20 then mismatches := m :: !mismatches)
    fmt

(* Samples of the end-to-end metrics, gathered across the rounds of a run
   so that each metric sees the whole run rather than one slice of it. *)
let samples : (string, float list) Hashtbl.t = Hashtbl.create 16
let add name xs = Hashtbl.replace samples name (Array.to_list xs @ Option.value ~default:[] (Hashtbl.find_opt samples name))
let sampled name = Array.of_list (Option.value ~default:[] (Hashtbl.find_opt samples name))

(* ---- replies ------------------------------------------------------------- *)

(* every timed request passes through here: error frames (a [building]
   answer included) count as failed *)
let ok_reply line =
  incr attempted;
  match Json.parse line with
  | Ok j when Json.member "ok" j = Some (Json.Bool true) -> Some j
  | _ ->
      incr failed;
      None

let field name conv j = Option.bind (Json.member name j) conv
let ints j = Option.bind (Json.to_list j) (fun l -> Some (List.filter_map Json.to_int l))

(* bit-identical: the wire prints floats with %.17g, which round-trips *)
let same_answer ~selection (a : R.answer) j =
  let mrr_ok =
    match field "mrr" Json.to_float j with
    | Some m -> Int64.equal (Int64.bits_of_float m) (Int64.bits_of_float a.mrr)
    | None -> false
  in
  mrr_ok && ((not selection) || Option.bind (Json.member "selection" j) ints = Some a.ids)

let read_replies = ref 0
let read_bytes = ref 0

let read_frame ~kind ~name k =
  Printf.sprintf {|{"op":"%s","name":"%s","k":%d}|} kind name k

(* check a read against [expect]; [query] replies also carry the selection.
   A read sent [~once] is the only check of its answer, so an error reply
   to it is a wrong answer, not just a failed request. *)
let check_read ?(once = false) ~name ~kind ~k ~expect line =
  incr read_replies;
  read_bytes := !read_bytes + String.length line;
  match ok_reply line with
  | None -> if once then mismatch "%s %s k=%d: error reply %s" kind name k line
  | Some j ->
      if not (same_answer ~selection:(kind = "query") (expect k) j) then
        mismatch "%s %s k=%d: served answer differs from the in-process replay" kind name k

(* the 64 hot keys: query and mrr for k = 1..32 *)
let key_of i = ((if i mod 2 = 0 then "query" else "mrr"), 1 + (i / 2 mod R.max_k))

(* ---- run context ------------------------------------------------------------- *)

type ctx = {
  seed : int;
  seconds : float;
  trace : bool;
  exe : string;
  dir : string;
  mutable spawned : int;
}

let sock ctx = Filename.concat ctx.dir "s.sock"
let metrics_path ctx = Filename.concat ctx.dir "server-metrics.json"

let spawn ctx =
  ctx.spawned <- ctx.spawned + 1;
  Wire.spawn ~exe:ctx.exe ~sock:(sock ctx)
    ~log:(Filename.concat ctx.dir "server.log")
    ?metrics:(if ctx.trace then Some (metrics_path ctx) else None)
    ()

let load_frame ?approx ~name path =
  Printf.sprintf {|{"op":"load","name":"%s","path":"%s"%s}|} name path
    (match approx with
    | Some e -> Printf.sprintf {|,"approx":%s|} (Json.to_string (Json.Num e))
    | None -> "")

(* poll [list] at most 1 ms apart until [name] is ready *)
let wait_ready c name =
  let rec go () =
    let r = Wire.call c {|{"op":"list"}|} in
    let status =
      match Json.parse r with
      | Ok j ->
          Option.bind (field "datasets" Json.to_list j) (fun ds ->
              List.find_map
                (fun d ->
                  if field "name" Json.to_str d = Some name then field "status" Json.to_str d
                  else None)
                ds)
      | Error _ -> None
    in
    match status with
    | Some "ready" -> ()
    | Some "building" ->
        Unix.sleepf 0.0005;
        go ()
    | _ -> Wire.fail "dataset %s did not build: %s" name r
  in
  go ()

(* load, then wait until ready: the client-observed build time *)
let timed_load c ?approx ~name path =
  let t0 = now () in
  (match ok_reply (Wire.call c (load_frame ?approx ~name path)) with
  | Some _ -> wait_ready c name
  | None -> Wire.fail "load %s refused" name);
  now () -. t0

let evict c name = ignore (ok_reply (Wire.call c (Printf.sprintf {|{"op":"evict","name":"%s"}|} name)))

(* Set-up, [reps] times: spawn until the first timed request can be sent
   (the server answers, and [load] is ready when given). Every set-up but
   the last is shut down again. *)
let setup ctx ~reps ?load () =
  let setups = Array.make reps 0. and builds = Array.make reps 0. in
  let last = ref None in
  for i = 0 to reps - 1 do
    let t0 = now () in
    let s = spawn ctx in
    let c = Wire.connect s in
    (match load with
    | None -> ignore (Wire.call c {|{"op":"ping"}|})
    | Some (d : R.data) ->
        let t1 = now () in
        (match Json.parse (Wire.call c (load_frame ~name:d.name d.path)) with
        | Ok j when Json.member "ok" j = Some (Json.Bool true) -> wait_ready c d.name
        | _ -> Wire.fail "set-up load of %s refused" d.name);
        builds.(i) <- now () -. t1);
    setups.(i) <- now () -. t0;
    if i < reps - 1 then begin
      Wire.close c;
      Wire.shutdown s
    end
    else last := Some (s, c)
  done;
  add "setup_s" setups;
  let s, c = Option.get !last in
  if load <> None then add "build_s" builds;
  (s, c)

(* ---- phases ----------------------------------------------------------------- *)


(* closed-loop reads of the 64 hot keys, one outstanding per connection *)
let closed_reads conns ~seconds ~name ~expect =
  let n, elapsed =
    Wire.closed_loop conns ~seconds
      ~frame:(fun i -> let kind, k = key_of i in read_frame ~kind ~name k)
      ~reply:(fun i line -> let kind, k = key_of i in check_read ~name ~kind ~k ~expect line)
  in
  add "read_qps" [| float_of_int n /. elapsed |]

(* generator lateness per open-loop phase: (interval, due -> send) *)
let lateness : (string * (float * float array)) list ref = ref []

(* Per slice: its p50 and p99 are one sample each of the run's
   read/write_p50_ms and _p99_ms, whose value is the median over the
   slices; all latencies are also kept, for means. *)
let note_streams ~phase streams =
  let ms =
    Array.concat
      (List.map
         (fun (s : Wire.stream) ->
           lateness := (phase, (1. /. s.rate, s.lateness)) :: !lateness;
           Array.map (fun x -> 1000. *. x) s.latency)
         streams)
  in
  add (phase ^ "_ms") ms;
  add (phase ^ "_p50_ms") [| Stats.percentile ms 0.50 |];
  add (phase ^ "_p99_ms") [| Stats.percentile ms 0.99 |]

(* open-loop reads of the 64 hot keys, split over the given connections *)
let open_reads conns ~rate ~seconds ~name ~expect =
  let per = rate /. float_of_int (List.length conns) in
  let count = max 1 (int_of_float (per *. seconds)) in
  let streams =
    List.mapi
      (fun ci c ->
        Wire.stream c ~phase:(float_of_int ci /. float_of_int (List.length conns)) ~rate:per ~count
          ~frame:(fun i -> let kind, k = key_of (i + ci) in read_frame ~kind ~name k)
          ~on_reply:(fun i line ->
            let kind, k = key_of (i + ci) in
            check_read ~name ~kind ~k ~expect line))
      conns
  in
  Wire.open_loop streams;
  note_streams ~phase:"read" streams

let write_frame ~name = function
  | R.Insert p ->
      Printf.sprintf {|{"op":"insert","name":"%s","point":%s}|} name
        (Json.to_string (Json.Arr (Array.to_list (Array.map (fun x -> Json.Num x) p))))
  | R.Delete id -> Printf.sprintf {|{"op":"delete","name":"%s","id":%d}|} name id

let check_write ~name ~(expect : R.reply) i line =
  match ok_reply line with
  | None -> ()
  | Some j ->
      if
        field "applied" Json.to_bool j <> Some expect.applied
        || field "epoch" Json.to_int j <> Some expect.epoch
        || field "live" Json.to_int j <> Some expect.live
        || field "id" Json.to_int j <> expect.id
      then mismatch "write %d on %s: reply %s differs from the Dynamic replay" i name line

(* writes that change no answer: a dominated insert, then its delete *)
let noop_expect ~n ops =
  Array.mapi
    (fun i op ->
      match op with
      | R.Insert _ -> { R.id = Some (n + (i / 2)); applied = true; epoch = 0; live = n + 1 }
      | R.Delete _ -> { R.id = None; applied = true; epoch = 0; live = n })
    ops

let open_writes c ~rate ~name ~ops ~expect =
  let s =
    Wire.stream c ~rate ~count:(Array.length ops)
      ~frame:(fun i -> write_frame ~name ops.(i))
      ~on_reply:(fun i line -> check_write ~name ~expect:expect.(i) i line)
  in
  Wire.open_loop [ s ];
  note_streams ~phase:"write" [ s ]

(* evict [name], then an exact load of [d]'s CSV under it until ready (one
   build_s sample); every answer checked after *)
let exact_build c (d : R.data) ~name expect =
  evict c name;
  add "build_s" [| timed_load c ~name d.path |];
  for k = 1 to R.max_k do
    check_read ~once:true ~name ~kind:"query" ~k ~expect (Wire.call c (read_frame ~kind:"query" ~name k))
  done

(* evict, then an ε=0.1 load until ready; every answer checked after *)
let approx_build c (d : R.data) a =
  evict c d.name;
  add "approx_build_s" [| timed_load c ~approx:0.1 ~name:d.name d.path |];
  for k = 1 to R.max_k do
    check_read ~once:true ~name:d.name ~kind:"query" ~k ~expect:(R.approx_answer a)
      (Wire.call c (read_frame ~kind:"query" ~name:d.name k))
  done

(* Evict and reload [d] (untimed), then an uncached rank_regret for every k
   in [rrr_ks]. The server builds an engine per k, so the ks cost unlike
   amounts: one sample is the round's mean time per answer, taken only when
   every answer is right. *)
let rrr_cold c (d : R.data) (r : R.rrr) =
  evict c d.name;
  ignore (timed_load c ~name:d.name d.path);
  let right k line =
    match ok_reply line with
    | None ->
        mismatch "rank_regret k=%d on %s: error reply %s" k d.name line;
        false
    | Some j ->
        let sel, rank = R.Rrr.query (List.assoc k r.engines) ~k in
        let same =
          Option.bind (Json.member "selection" j) ints = Some sel
          && field "rank_lo" Json.to_int j = Some rank.R.Rrr.lo
          && field "rank_hi" Json.to_int j = Some rank.R.Rrr.hi
          && field "exact" Json.to_bool j = Some rank.R.Rrr.exact
          && field "cached" Json.to_bool j = Some false
        in
        if not same then mismatch "rank_regret k=%d on %s differs from Rrr.build + query" k d.name;
        same
  in
  let times =
    List.map
      (fun (k, _) ->
        let t0 = now () in
        let line = Wire.call c (read_frame ~kind:"rank_regret" ~name:d.name k) in
        (now () -. t0, right k line))
      r.engines
  in
  if List.for_all snd times then
    add "rrr_cold_s" [| Stats.mean (Array.of_list (List.map fst times)) |]

let finish s c =
  add "peak_rss_mb" [| Wire.peak_rss_mb s |];
  Wire.close c;
  Wire.shutdown s

(* Measured, but kept to the full record. Tail latencies: on a shared
   two-core host a stall of a few milliseconds hits about 1% of requests in
   some runs and none in others. approx_build_s: its run-to-run spread on
   write-mix stayed just above the widest bound a gate may use (25%). *)
let record_only = [ "read_p99_ms"; "write_p99_ms"; "approx_build_s" ]

(* Every end-to-end metric from the samples of the run. A slow stretch of
   the shared host only ever adds time, and it can cover much of a run, so
   a time's value is the first quartile of its samples: a change to the
   program moves every sample, a noisy neighbour moves only some. setup_s
   and read_qps keep the median of their samples: the closed loop needs
   both cores, and the third quartile of its throughput picked up the
   host's fast spells as well (on a shared two-core host, the 10-seed
   spread on hot-read was 31% for it against 17% for the median). *)
let finalize () =
  let fast name unit_ =
    let xs = sampled name in
    let q1, _, _ = Stats.quartiles xs in
    put e2e name unit_ q1 xs
  in
  let median name unit_ =
    let xs = sampled name in
    put e2e name unit_ (Stats.median xs) xs
  in
  median "setup_s" "s";
  List.iter (fun n -> fast n "s") [ "build_s"; "approx_build_s"; "rrr_cold_s" ];
  median "read_qps" "1/s";
  List.iter (fun n -> fast n "ms") [ "read_p50_ms"; "read_p99_ms"; "write_p50_ms"; "write_p99_ms" ];
  fast "peak_rss_mb" "MiB";
  put e2e "ok_ratio" "ratio" (1. -. Stats.ratio !failed !attempted) [| float_of_int !attempted |]

(* the probes hot-read and write-mix share: ε-kernel loads of n=5*10^4,
   d=3 (large enough that a load is not lost in timer and polling jitter)
   and cold rank_regret on n=2000, d=4 *)
type probes = {
  p_data : R.data;
  p_ref : R.Pipeline.t;
  q_data : R.data;
  q_ref : R.rrr;
  q_writes : R.op array;  (* answer-preserving writes, one round's worth *)
}

let rrr_ks = [ 1; 2; 3; 4 ]

let probe_data ctx ~write_s =
  let p_data = R.dataset ~dir:ctx.dir ~seed:ctx.seed ~salt:11 ~name:"probe_approx" ~n:50_000 ~d:3 in
  let q_data = R.dataset ~dir:ctx.dir ~seed:ctx.seed ~salt:12 ~name:"probe_rrr" ~n:2_000 ~d:4 in
  let q_writes =
    R.noop_writes ~seed:ctx.seed ~rows:q_data.rows ~happy_ids:(R.exact q_data.rows).happy_ids
      ~count:(2 * max 1 (int_of_float (100. *. write_s)))
  in
  { p_data; p_ref = R.approx ~eps:0.1 p_data.rows; q_data; q_ref = R.rrr ~ks:rrr_ks q_data.rows; q_writes }

(* one round of probes: two ε-kernel loads, cold rank_regret answers on a
   fresh load of the rank-regret dataset, then answer-preserving writes on
   it (the next round's reload starts it from the file again) *)
let run_probes c pr ~writes =
  approx_build c pr.p_data pr.p_ref;
  approx_build c pr.p_data pr.p_ref;
  rrr_cold c pr.q_data pr.q_ref;
  if writes then
    open_writes c ~rate:200. ~name:pr.q_data.name ~ops:pr.q_writes
      ~expect:(noop_expect ~n:(Array.length pr.q_data.rows) pr.q_writes)

(* ---- traced run: per-layer figures ------------------------------------------ *)

let layer_us name samples = put layers name "us" (1e6 *. Stats.mean samples) samples
let layer_count name v = put layers name "count" (float_of_int v) [| float_of_int v |]
let layer_ratio name v = put layers name "ratio" v [| v |]
let layer_s name v = put layers name "s" v [| v |]

(* mean seconds per call of [f] over [xs], repeated until ~[budget] s *)
let per_call ?(budget = 0.2) xs f =
  let n = Array.length xs in
  let reps = ref 0 and t0 = now () in
  while now () -. t0 < budget do
    Array.iter (fun x -> ignore (Sys.opaque_identity (f x))) xs;
    incr reps
  done;
  (now () -. t0) /. float_of_int (!reps * n)

let server_counters ctx =
  match Json.parse (In_channel.with_open_bin (metrics_path ctx) In_channel.input_all) with
  | Ok j -> j
  | Error m -> Wire.fail "server metrics: %s" m

let sc j name = Option.value ~default:0 (Option.bind (Json.member "counters" j) (fun c -> field name Json.to_int c))

(* the median bucket bound of one of the server's histograms *)
let hist_p50 j name =
  match Option.bind (Json.member "histograms" j) (Json.member name) with
  | None -> 0.
  | Some h ->
      let buckets = Option.value ~default:[] (field "buckets" Json.to_list h) in
      let total = List.fold_left (fun a b -> a + Option.value ~default:0 (field "count" Json.to_int b)) 0 buckets in
      let rec go acc = function
        | [] -> 0.
        | b :: rest ->
            let acc = acc + Option.value ~default:0 (field "count" Json.to_int b) in
            if 2 * acc >= total then
              Option.value ~default:infinity (field "le" Json.to_float b)
            else go acc rest
      in
      if total = 0 then 0. else go 0 buckets

type figure = { figure : string; total : float; stages : (string * float) list; residual : string; tol : float option }

let stage_records = ref []

(* The request path, replayed in-process on [d]: parse, registry lookup and
   staleness check, cache get, compute on a miss, render. *)
let serve_layers (d : R.data) ~exact =
  let reg = Registry.create ~max_length:R.max_k () in
  let info =
    match Registry.load reg ~name:d.name ~path:d.path with
    | Ok _ ->
        let rec ready () =
          match Registry.find reg d.name with
          | Some ({ Registry.status = Registry.Ready _; _ } as i) -> i
          | Some { Registry.status = Registry.Failed m; _ } -> Wire.fail "in-process build: %s" m
          | _ ->
              Unix.sleepf 0.001;
              ready ()
        in
        ready ()
    | Error m -> Wire.fail "in-process load: %s" m
  in
  let frames = Array.init 64 (fun i -> let kind, k = key_of i in read_frame ~kind ~name:d.name k) in
  let parse = per_call frames (fun f -> Protocol.parse_request f) in
  let names = Array.make 64 d.name in
  let lookup = per_call names (fun n -> Registry.find reg n) in
  let fresh = per_call names (fun _ -> Registry.fresh reg info) in
  let backend = match info.Registry.status with Registry.Ready b -> b.Registry.backend | _ -> assert false in
  let keys = Array.init 64 (fun i -> let kind, k = key_of i in (info.Registry.fingerprint, 1, 0., 0, k, kind)) in
  let cache = Lru.create ~capacity:128 and m = Mutex.create () in
  Array.iter (fun key -> Lru.put cache key ()) keys;
  let cache_get =
    per_call keys (fun key ->
        Mutex.lock m;
        let v = Lru.get cache key in
        Mutex.unlock m;
        v)
  in
  let ks = Array.init R.max_k (fun i -> i + 1) in
  let compute = per_call ks (fun k -> Registry.backend_query backend ~k) in
  let replies =
    Array.init 64 (fun i ->
        let kind, k = key_of i in
        let a : R.answer = exact k in
        [ ("op", Json.Str kind); ("name", Json.Str d.name); ("k", Json.int k); ("mrr", Json.Num a.mrr);
          ("cached", Json.Bool true); ("coalesced", Json.Bool false) ]
        @ if kind = "query" then [ ("selection", Json.Arr (List.map Json.int a.ids)) ] else [])
  in
  let render = per_call replies Protocol.ok_response in
  Registry.shutdown reg;
  List.iter (fun (n, v) -> layer_us n [| v |])
    [ ("serve.parse_us", parse); ("serve.lookup_us", lookup); ("serve.fresh_us", fresh);
      ("serve.cache_get_us", cache_get); ("serve.compute_us", compute); ("serve.render_us", render) ];
  put layers "serve.response_bytes" "bytes" (Stats.ratio !read_bytes !read_replies) [| float_of_int !read_replies |]

(* the read latency seen by the client, split into the handler stages and
   the remainder: poller, socket and worker hand-off *)
let read_figure ~hit_ratio ~read_mean_s =
  let us n = layer n /. 1e6 in
  let stages =
    [ ("protocol.parse", us "serve.parse_us"); ("registry.lookup", us "serve.lookup_us");
      ("registry.fresh", us "serve.fresh_us"); ("lru.get", us "serve.cache_get_us");
      ("batcher.compute", (1. -. hit_ratio) *. us "serve.compute_us"); ("render", us "serve.render_us") ]
  in
  let io = read_mean_s -. List.fold_left (fun a (_, s) -> a +. s) 0. stages in
  put layers "serve.io_queue_us" "us" (1e6 *. io) [||];
  { figure = "read_latency_mean"; total = read_mean_s; stages = stages @ [ ("poller.io_queue", io) ]; residual = "poller.io_queue"; tol = None }

(* the update path: Dynamic op and snapshot, timed on the replay, plus the
   handler's parse and render; the remainder is the registry worker's queue
   and hand-off *)
let dynamic_layers ~(rp : R.replay) ~ops ~name ~write_mean_s ~server =
  let ins = Stats.mean rp.insert_s and del = Stats.mean rp.delete_s and snap = Stats.mean rp.snapshot_s in
  layer_us "dynamic.insert_us" rp.insert_s;
  layer_us "dynamic.delete_us" rp.delete_s;
  layer_us "dynamic.snapshot_us" rp.snapshot_s;
  let updates = List.fold_left (fun a n -> a + sc server n) 0 [ "dynamic.inserts"; "dynamic.insert_noops"; "dynamic.deletes"; "dynamic.delete_noops" ] in
  layer_ratio "dynamic.noop_ratio" (Stats.ratio (sc server "dynamic.insert_noops" + sc server "dynamic.delete_noops") updates);
  layer_ratio "dynamic.stored_rebuild_ratio" (Stats.ratio (sc server "dynamic.stored_rebuilds") updates);
  layer_ratio "dynamic.stored_reuse_ratio" (Stats.ratio (sc server "dynamic.stored_reuse") updates);
  layer_ratio "dynamic.memo_hit_ratio" (Stats.ratio (sc server "dynamic.stored_memo_hits") updates);
  let frames = Array.map (write_frame ~name) ops in
  let parse = per_call frames (fun f -> Protocol.parse_request f) in
  let render =
    per_call rp.replies (fun (r : R.reply) ->
        Protocol.ok_response
          ([ ("op", Json.Str "insert"); ("name", Json.Str name); ("applied", Json.Bool r.applied);
             ("live", Json.int r.live); ("epoch", Json.int r.epoch) ]
          @ match r.id with Some id -> [ ("id", Json.int id) ] | None -> []))
  in
  let n_ins = Array.length rp.insert_s and n_del = Array.length rp.delete_s in
  let op = ((ins *. float_of_int n_ins) +. (del *. float_of_int n_del)) /. float_of_int (max 1 (n_ins + n_del)) in
  let stages = [ ("protocol.parse", parse); ("dynamic.op", op); ("dynamic.snapshot", snap); ("render", render) ] in
  let wait = write_mean_s -. List.fold_left (fun a (_, s) -> a +. s) 0. stages in
  put layers "registry.update_wait_ms" "ms" (1000. *. wait) [||];
  { figure = "write_latency_mean"; total = write_mean_s; stages = stages @ [ ("registry.update_wait", wait) ]; residual = "registry.update_wait"; tol = None }

(* median seconds of [reps] calls of [f] *)
let median_time ?(reps = 3) f = Stats.median (Array.init reps (fun _ -> snd (R.timed f)))

(* the offline build of [d], stage by stage, against the client-observed
   build time *)
let build_layers (d : R.data) (e : R.exact) ~build_s =
  let parse_s = median_time (fun () -> R.parse_like_server ~name:d.name d.path) in
  (* stage times: the median of the verification pass and two more *)
  let again = [ e; R.exact d.rows; R.exact d.rows ] in
  let stage f = Stats.median (Array.of_list (List.map f again)) in
  let e = { e with sky_s = stage (fun e -> e.R.sky_s); happy_s = stage (fun e -> e.R.happy_s); stored_s = stage (fun e -> e.R.stored_s) } in
  layer_s "registry.parse_s" parse_s;
  layer_s "skyline.naive_s" e.sky_s;
  layer_count "skyline.dominance_tests" (R.count e.sky_counters "skyline.dominance_tests");
  layer_s "happy.screen_s" e.happy_s;
  layer_count "happy.subjugation_probes" (R.count e.happy_counters "happy.subjugation_probes");
  layer_ratio "happy.kept_ratio" (Stats.ratio (Array.length e.happy_ids) e.n_happy_candidates);
  layer_s "stored_list.preprocess_s" e.stored_s;
  List.iter (fun n -> layer_count n (R.count e.stored_counters n))
    [ "geo_greedy.champion_rescans"; "geo_greedy.rounds"; "geo_greedy.kernel_tiles"; "dd.constraints";
      "dd.vertices_created"; "dd.redundant_constraints" ];
  let stages =
    [ ("registry.parse", parse_s); ("skyline.naive", e.sky_s); ("happy.screen", e.happy_s);
      ("stored_list.preprocess", e.stored_s) ]
  in
  let residual = build_s -. List.fold_left (fun a (_, s) -> a +. s) 0. stages in
  layer_s "build.residual_s" residual;
  { figure = "build_s"; total = build_s; stages = stages @ [ ("build.residual", residual) ]; residual = "build.residual"; tol = Some 0.15 }

let approx_layers (d : R.data) (a : R.Pipeline.t) ~approx_build_s =
  let kernel_s = median_time (fun () -> R.Kernel.reduce ~eps:0.1 d.rows) in
  let pipeline_s = median_time (fun () -> R.Pipeline.run ~max_length:R.max_k ~eps:0.1 d.rows) in
  layer_s "approx.kernel_s" kernel_s;
  layer_s "approx.pipeline_s" pipeline_s;
  layer_ratio "approx.reduction_ratio"
    (Stats.ratio (Array.length a.R.Pipeline.reduction.R.Kernel.ids) (Array.length d.rows));
  let parse_s = median_time (fun () -> R.parse_like_server ~name:d.name d.path) in
  let stages = [ ("registry.parse", parse_s); ("approx.kernel", kernel_s); ("approx.pipeline_rest", pipeline_s -. kernel_s) ] in
  let residual = approx_build_s -. List.fold_left (fun a (_, s) -> a +. s) 0. stages in
  { figure = "approx_build_s"; total = approx_build_s; stages = stages @ [ ("approx.residual", residual) ]; residual = "approx.residual"; tol = Some 0.25 }

let rrr_layers (r : R.rrr) ~rrr_cold_s =
  layer_s "rrr.build_s" r.build_s;
  layer_s "rrr.query_s" r.query_s;
  layer_count "rrr.rank_evals" (R.count r.rrr_counters "rrr.rank_evals");
  layer_count "rrr.greedy_steps" (R.count r.rrr_counters "rrr.greedy_steps");
  let stages = [ ("rrr.build", r.build_s); ("rrr.query", r.query_s) ] in
  let residual = rrr_cold_s -. r.build_s -. r.query_s in
  { figure = "rrr_cold_s"; total = rrr_cold_s; stages = stages @ [ ("rrr.residual", residual) ]; residual = "rrr.residual"; tol = Some 0.15 }

let server_layers server =
  let hits = sc server "serve.cache.hits" and misses = sc server "serve.cache.misses" in
  layer_ratio "serve.cache_hit_ratio" (Stats.ratio hits (hits + misses));
  let leaders = sc server "serve.batch.leaders" and followers = sc server "serve.batch.followers" in
  layer_ratio "serve.batch_follower_ratio" (Stats.ratio followers (leaders + followers));
  layer_count "pool.regions" (sc server "pool.regions");
  layer_count "pool.chunks" (sc server "pool.chunks");
  put layers "pool.region_imbalance_p50" "ratio" (hist_p50 server "pool.region_imbalance") [||];
  Stats.ratio hits (hits + misses)

(* The per-layer figures of a traced run, once the server is down: the
   request path replayed on the dataset the reads hit, the update path on
   a replay of the writes (unless the workload already made one), the
   offline stages of the build behind build_s, the ε-kernel and the
   rank-regret engine. [primary] names the breakdown the workload exists
   for; it leads the record. *)
let traced ctx ~reads:(rd, exact) ~writes:((wd : R.data), ops, rp) ~build:(bd, e) ~approx:(ad, a) ~rrr
    ~primary =
  let server = server_counters ctx in
  let hit_ratio = server_layers server in
  serve_layers rd ~exact;
  let rp = match rp with Some rp -> rp | None -> R.replay wd.rows ops in
  let mean_s name = Stats.mean (sampled name) /. 1000. in
  let figures =
    [ read_figure ~hit_ratio ~read_mean_s:(mean_s "read_ms");
      dynamic_layers ~rp ~ops ~name:wd.name ~write_mean_s:(mean_s "write_ms") ~server;
      build_layers bd e ~build_s:(metric "build_s");
      approx_layers ad a ~approx_build_s:(metric "approx_build_s");
      rrr_layers rrr ~rrr_cold_s:(metric "rrr_cold_s") ]
  in
  let first, rest = List.partition (fun f -> f.figure = primary) figures in
  stage_records := first @ rest

(* ---- workloads ----------------------------------------------------------------- *)

(* A run is set-up, then rounds: each round gives every timed phase a slice
   of --seconds, so every metric samples the whole run. *)
let slice ctx share rounds = share *. ctx.seconds /. float_of_int rounds

let hot_read ctx =
  let rounds = 6 in
  let h = R.dataset ~dir:ctx.dir ~seed:ctx.seed ~salt:1 ~name:"hot" ~n:10_000 ~d:6 in
  let eh = R.exact h.rows in
  let pr = probe_data ctx ~write_s:(slice ctx 0.12 rounds) in
  Pool.shutdown (Pool.get ());
  let s, c = setup ctx ~reps:3 ~load:h () in
  let expect = R.exact_answer eh in
  for i = 0 to 63 do
    let kind, k = key_of i in
    check_read ~once:true ~name:h.name ~kind ~k ~expect (Wire.call c (read_frame ~kind ~name:h.name k))
  done;
  let c2 = Wire.connect s in
  for round = 1 to rounds do
    closed_reads [ c; c2 ] ~seconds:(slice ctx 0.35 rounds) ~name:h.name ~expect;
    open_reads [ c; c2 ] ~rate:8000. ~seconds:(slice ctx 0.35 rounds) ~name:h.name ~expect;
    run_probes c pr ~writes:true;
    (* build_s samples across the run, on a copy of [h]; every other round,
       as each takes about two seconds *)
    if round mod 2 = 0 then exact_build c h ~name:"hot_build" expect
  done;
  Wire.close c2;
  finish s c;
  finalize ();
  if ctx.trace then
    traced ctx ~reads:(h, expect) ~writes:(pr.q_data, pr.q_writes, None) ~build:(h, eh)
      ~approx:(pr.p_data, pr.p_ref) ~rrr:pr.q_ref ~primary:"read_latency_mean"

let write_mix ctx =
  let rounds = 6 in
  let w = R.dataset ~dir:ctx.dir ~seed:ctx.seed ~salt:2 ~name:"mix" ~n:10_000 ~d:4 in
  let ew = R.exact w.rows in
  let pr = probe_data ctx ~write_s:0. in
  let mix_s = slice ctx 0.7 rounds in
  let write_rate = 100. in
  let per_round = int_of_float (write_rate *. mix_s) in
  let ops = R.churn ~seed:ctx.seed ~n:(Array.length w.rows) ~d:4 ~count:(rounds * per_round) in
  let rp = R.replay w.rows ops in
  Pool.shutdown (Pool.get ());
  let s, c = setup ctx ~reps:3 ~load:w () in
  let c2 = Wire.connect s in
  let epoch_after i = if i < 0 then 0 else rp.replies.(i).R.epoch in
  let sent = ref 0 and acked = ref 0 in
  let jitter = Random.State.make [| ctx.seed; 7 |] in
  for round = 0 to rounds - 1 do
    (* no write is in flight here: the answers are those after the last
       acknowledged write *)
    closed_reads [ c; c2 ] ~seconds:(slice ctx 0.1 rounds) ~name:w.name
      ~expect:(R.epoch_answer rp (epoch_after (!acked - 1)));
    (* reads beside the writer: a read may see any epoch between the last
       write acknowledged before it was sent and the last write sent before
       its reply came back *)
    let base = round * per_round in
    let reads = int_of_float (1000. *. mix_s) in
    let acked_at_send = Array.make reads 0 in
    let writer =
      Wire.stream c ~rate:write_rate ~count:per_round
        ~on_send:(fun _ -> incr sent)
        ~frame:(fun i -> write_frame ~name:w.name ops.(base + i))
        ~on_reply:(fun i line ->
          incr acked;
          check_write ~name:w.name ~expect:rp.replies.(base + i) (base + i) line)
    in
    let reader =
      Wire.stream c2 ~rate:1000. ~count:reads ~jitter
        ~on_send:(fun i -> acked_at_send.(i) <- !acked)
        ~frame:(fun i -> read_frame ~kind:"query" ~name:w.name (1 + (i mod R.max_k)))
        ~on_reply:(fun i line ->
          let k = 1 + (i mod R.max_k) in
          incr read_replies;
          read_bytes := !read_bytes + String.length line;
          match ok_reply line with
          | None -> ()
          | Some j ->
              let lo = epoch_after (acked_at_send.(i) - 1) and hi = epoch_after (!sent - 1) in
              let rec seen e =
                e <= hi && (same_answer ~selection:true (R.epoch_answer rp e k) j || seen (e + 1))
              in
              if not (seen lo) then mismatch "query k=%d on %s matches no epoch in [%d, %d]" k w.name lo hi)
    in
    Wire.open_loop [ writer; reader ];
    note_streams ~phase:"write" [ writer ];
    note_streams ~phase:"read" [ reader ];
    run_probes c pr ~writes:false;
    (* build_s samples across the run, on a copy: the updates keep [w] *)
    exact_build c w ~name:"mix_build" (R.exact_answer ew)
  done;
  let final = R.epoch_answer rp (epoch_after (Array.length ops - 1)) in
  for i = 0 to 63 do
    let kind, k = key_of i in
    check_read ~once:true ~name:w.name ~kind ~k ~expect:final (Wire.call c (read_frame ~kind ~name:w.name k))
  done;
  Wire.close c2;
  finish s c;
  finalize ();
  if ctx.trace then
    traced ctx ~reads:(w, R.exact_answer ew) ~writes:(w, ops, Some rp) ~build:(w, ew)
      ~approx:(pr.p_data, pr.p_ref) ~rrr:pr.q_ref ~primary:"write_latency_mean"

let cold_build ctx =
  let rounds = 3 in
  let c6 = R.dataset ~dir:ctx.dir ~seed:ctx.seed ~salt:3 ~name:"cold6" ~n:10_000 ~d:6 in
  let c3 = R.dataset ~dir:ctx.dir ~seed:ctx.seed ~salt:4 ~name:"cold3" ~n:100_000 ~d:3 in
  let c4 = R.dataset ~dir:ctx.dir ~seed:ctx.seed ~salt:5 ~name:"cold4" ~n:10_000 ~d:4 in
  let e6 = R.exact c6.rows and a3 = R.approx ~eps:0.1 c3.rows in
  let e4 = R.exact c4.rows and r4 = R.rrr ~ks:rrr_ks c4.rows in
  (* three write slices per round continue one id sequence; the reload at
     the next round starts it again *)
  let per_part = 2 * int_of_float (100. *. slice ctx 0.08 rounds) in
  let writes =
    R.noop_writes ~seed:ctx.seed ~rows:c4.rows ~happy_ids:e4.happy_ids ~count:(3 * per_part)
  in
  let writes_expect = noop_expect ~n:(Array.length c4.rows) writes in
  let expect = R.exact_answer e4 in
  Pool.shutdown (Pool.get ());
  let s, c = setup ctx ~reps:7 () in
  let c2 = Wire.connect s in
  for _ = 1 to rounds do
    exact_build c c6 ~name:c6.name (R.exact_answer e6);
    approx_build c c3 a3;
    approx_build c c3 a3;
    (* the rank_regret dataset is reloaded fresh each round, so the reads
       and answer-preserving writes on it start from the file again *)
    rrr_cold c c4 r4;
    for part = 0 to 2 do
      closed_reads [ c; c2 ] ~seconds:(slice ctx 0.015 rounds) ~name:c4.name ~expect;
      open_reads [ c; c2 ] ~rate:2000. ~seconds:(slice ctx 0.03 rounds) ~name:c4.name ~expect;
      open_writes c ~rate:200. ~name:c4.name
        ~ops:(Array.sub writes (part * per_part) per_part)
        ~expect:(Array.sub writes_expect (part * per_part) per_part)
    done
  done;
  Wire.close c2;
  finish s c;
  finalize ();
  if ctx.trace then
    traced ctx ~reads:(c4, expect) ~writes:(c4, writes, None) ~build:(c6, e6) ~approx:(c3, a3)
      ~rrr:r4 ~primary:"build_s"

let workloads = [ ("hot-read", hot_read); ("write-mix", write_mix); ("cold-build", cold_build) ]

(* ---- output -------------------------------------------------------------------- *)

let num x = Json.Num x

let metric_json (name, m) =
  let p25, p50, p75 = Stats.quartiles m.samples in
  ( name,
    Json.Obj
      [ ("value", num m.value); ("unit", Json.Str m.unit_); ("samples_median", num p50);
        ("samples_p25", num p25); ("samples_p75", num p75); ("n", Json.int (Array.length m.samples)) ] )

let figure_json f =
  let stages =
    List.map
      (fun (name, s) ->
        Json.Obj [ ("name", Json.Str name); ("seconds", num s); ("share", num (if f.total > 0. then s /. f.total else 0.)) ])
      f.stages
  in
  let measured = List.fold_left (fun a (n, s) -> if n = f.residual then a else a +. s) 0. f.stages in
  let residual = f.total -. measured in
  (* request-path figures: the measured stages must not exceed the
     client-observed total; offline figures: the unattributed remainder
     must stay within the tolerance *)
  let reconciled, rule =
    match f.tol with
    | None -> (residual >= 0. && List.for_all (fun (_, s) -> s >= 0.) f.stages, "measured stages <= total")
    | Some tol -> (Float.abs residual <= tol *. f.total, Printf.sprintf "|residual| <= %.0f%% of total" (100. *. tol))
  in
  Json.Obj
    [ ("figure", Json.Str f.figure); ("total_seconds", num f.total); ("stages", Json.Arr stages);
      ("reconciled", Json.Bool reconciled); ("rule", Json.Str rule) ]

let git_rev () =
  try
    let ic = Unix.open_process_args_in "git" [| "git"; "rev-parse"; "--short"; "HEAD" |] in
    let rev = try String.trim (input_line ic) with End_of_file -> "" in
    match Unix.close_process_in ic with Unix.WEXITED 0 when rev <> "" -> rev | _ -> "unknown"
  with _ -> "unknown"

(* the code under test: a digest of the server and driver executables, so
   records compare like with like where there is no git revision *)
let build_id exe = Digest.to_hex (Digest.string (Digest.file exe ^ Digest.file Sys.executable_name))

(* tracing overhead: this traced run's end-to-end figures minus the median
   of the untraced runs in [results] of the same workload, build and
   --seconds; null when there are none *)
let overhead ctx ~results ~workload ~build =
  let same j =
    field "workload" Json.to_str j = Some workload
    && field "trace" Json.to_int j = Some 0
    && field "build_id" Json.to_str j = Some build
    && field "seconds" Json.to_float j = Some ctx.seconds
  in
  let untraced =
    if not (Sys.file_exists results) then []
    else
      In_channel.with_open_bin results In_channel.input_all
      |> String.split_on_char '\n'
      |> List.filter_map (fun l ->
             match Json.parse l with
             | Ok j when same j -> Json.member "metrics" j
             | _ -> None)
  in
  if untraced = [] then Json.Null
  else
    Json.Obj
      (List.filter_map
         (fun (name, m) ->
           let vs = List.filter_map (fun j -> Option.bind (Json.member name j) (field "value" Json.to_float)) untraced in
           if vs = [] then None
           else Some (name, num (m.value -. Stats.median (Array.of_list vs))))
         (List.rev !e2e))

let record ctx ~workload ~results =
  let build = build_id ctx.exe in
  let loops_json =
    List.map
      (fun phase ->
        let mine = List.filter_map (fun (p, x) -> if p = phase then Some x else None) !lateness in
        let late = Array.concat (List.map snd mine) in
        let behind = List.fold_left (fun a (iv, l) -> a + Array.fold_left (fun a x -> if x > iv then a + 1 else a) 0 l) 0 mine in
        Json.Obj
          [ ("phase", Json.Str phase); ("sent", Json.int (Array.length late));
            ("lateness_p99_ms", num (1000. *. Stats.percentile late 0.99)); ("late_sends", Json.int behind) ])
      [ "read"; "write" ]
  in
  let trace_fields =
    if not ctx.trace then [ ("stages", Json.Arr []); ("reconciled", Json.Null) ]
    else
      match List.map figure_json !stage_records with
      | [] -> []
      | primary :: _ as all ->
          [ ("stages", Option.value ~default:Json.Null (Json.member "stages" primary));
            ("reconciled", Option.value ~default:Json.Null (Json.member "reconciled" primary));
            ("breakdowns", Json.Arr all);
            ("per_layer", Json.Obj (List.rev_map metric_json !layers));
            ("tracing_overhead", overhead ctx ~results ~workload ~build) ]
  in
  Json.Obj
    ([ ("schema", Json.Str "kregret-perfbench/v1"); ("workload", Json.Str workload); ("seed", Json.int ctx.seed);
       ("seconds", num ctx.seconds); ("trace", Json.int (if ctx.trace then 1 else 0)); ("git_rev", Json.Str (git_rev ())); ("build_id", Json.Str build);
       ("nproc", Json.int (Domain.recommended_domain_count ())); ("ocaml", Json.Str Sys.ocaml_version);
       ("pool_width", Json.int 2); ("server_workers", Json.int 4); ("cache_capacity", Json.int 128);
       ("max_k", Json.int R.max_k); ("servers_spawned", Json.int ctx.spawned); ("attempted", Json.int !attempted);
       ("failed", Json.int !failed); ("mismatches", Json.Arr (List.rev_map (fun m -> Json.Str m) !mismatches));
       ("metrics", Json.Obj (List.rev_map metric_json !e2e)); ("open_loops", Json.Arr loops_json) ]
    @ trace_fields)

let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let usage () =
  prerr_endline
    "usage: kbench.exe --server EXE --workload hot-read|write-mix|cold-build --seed N --seconds S --trace 0|1 [--dir DIR] [--out FILE]";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opts acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" -> opts ((k, v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let o = opts [] args in
  let get k = match List.assoc_opt k o with Some v -> v | None -> usage () in
  let int_arg k = match int_of_string_opt (get k) with Some v -> v | None -> usage () in
  let workload = get "--workload" in
  let run = match List.assoc_opt workload workloads with Some f -> f | None -> usage () in
  let trace = match get "--trace" with "0" -> false | "1" -> true | _ -> usage () in
  let dir = Option.value ~default:".perfbench_work" (List.assoc_opt "--dir" o) in
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  let run_dir = Filename.concat dir (Printf.sprintf "run-%d" (Unix.getpid ())) in
  Sys.mkdir run_dir 0o755;
  let ctx = { seed = int_arg "--seed"; seconds = float_of_int (int_arg "--seconds"); trace; exe = get "--server"; dir = run_dir; spawned = 0 } in
  if ctx.seconds < 1. then usage ();
  Pool.set_jobs 2;
  Obs.Control.set_clock Unix.gettimeofday;
  Obs.Control.set_enabled trace;
  let results = Filename.concat dir "results.jsonl" in
  let outcome =
    try
      run ctx;
      Ok ()
    with Wire.Wire_error m | Failure m | Sys_error m -> Error m in
  List.iter Wire.kill !Wire.spawned;
  match outcome with
  | Error m ->
      Printf.eprintf "kbench: %s failed: %s\n%!" workload m;
      exit 1
  | Ok () ->
      let full = Json.to_string (record ctx ~workload ~results) in
      Out_channel.with_open_gen [ Open_append; Open_creat; Open_wronly ] 0o644 results (fun oc -> output_string oc (full ^ "\n"));
      (match List.assoc_opt "--out" o with
      | Some p -> Out_channel.with_open_bin p (fun oc -> output_string oc (full ^ "\n"))
      | None -> ());
      (* the CSVs are large and regenerated from the seed; a failed run
         keeps its directory, server log included *)
      remove_tree run_dir;
      List.iter (fun (m : string) -> Printf.eprintf "kbench: MISMATCH %s\n%!" m) (List.rev !mismatches);
      let shown = if trace then !layers else !e2e in
      List.iter (fun (n, m) -> Printf.eprintf "  %-32s %14.6g %s\n" n m.value m.unit_) (List.rev shown);
      let shown = List.filter (fun (n, _) -> not (List.mem n record_only)) shown in
      let correct = !mismatches = [] in
      let line =
        Json.Obj
          [ ("correct", Json.Bool correct); ("attempted", Json.int !attempted); ("failed", Json.int !failed);
            ("metrics", Json.Obj (List.rev_map (fun (n, m) -> (n, Json.Obj [ ("value", num m.value); ("unit", Json.Str m.unit_) ])) shown)) ]
      in
      print_endline (Json.to_string line);
      if not correct then exit 1
