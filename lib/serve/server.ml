module Obs = Kregret_obs
module Snapshot = Kregret.Snapshot

let c_requests = Obs.Registry.counter "serve.requests" ~help:"request frames handled"

let c_errors =
  Obs.Registry.counter "serve.errors" ~help:"requests answered with a structured error"

let c_inline =
  Obs.Registry.counter "serve.inline_answers"
    ~help:"cached reads answered on the IO thread"

type config = {
  listeners : Endpoint.t list;
  cache_capacity : int;
  max_line : int;
  retry_after : float;
  max_length : int option;
  workers : int;
  approx : float;  (* server-wide default ε for [load]; 0. = exact *)
}

let config ?(cache_capacity = 128) ?(max_line = Protocol.default_max_line)
    ?(retry_after = 0.05) ?max_length ?(workers = 4) ?(approx = 0.)
    ?(listeners = []) ?socket_path () =
  if cache_capacity < 0 then invalid_arg "Server.config: cache_capacity < 0";
  if max_line < 1 then invalid_arg "Server.config: max_line < 1";
  (match max_length with
  | Some m when m < 1 -> invalid_arg "Server.config: max_length < 1"
  | _ -> ());
  if workers < 1 then invalid_arg "Server.config: workers < 1";
  if (not (Float.is_finite retry_after)) || retry_after < 0. then
    invalid_arg "Server.config: retry_after must be finite and >= 0";
  if (not (Float.is_finite approx)) || approx < 0. || approx > 1. then
    invalid_arg "Server.config: approx must be in [0, 1]";
  let listeners =
    listeners
    @ match socket_path with Some p -> [ Endpoint.Unix_path p ] | None -> []
  in
  if listeners = [] then
    invalid_arg "Server.config: no listeners (pass ~listeners or ~socket_path)";
  {
    listeners;
    cache_capacity;
    max_line;
    retry_after;
    max_length;
    workers;
    approx;
  }

(* cache key: (generation, version, k, family). The generation names
   one registration: a load that creates or replaces an entry takes a new
   one, so registrations never share rows — not exact vs ε loads of one
   CSV, and not two names of one file whose updates reach equal epochs
   with different points. The version is that of the snapshot part the
   family reads ([version_of]), so an insert/delete invalidates by key
   churn — stale rows age out of the LRU with no explicit flush. The
   family keeps a rank certificate and a regret selection at the same k
   apart. *)
type key = int * int * int * Protocol.family

type t = {
  cfg : config;
  reg : Registry.t;
  cache : (key, string) Lru.t;
      (* each row is the exact bytes of its hit reply: the name and [k]
         inside are fixed by the key, since a generation names exactly
         one registration *)
  cache_mutex : Mutex.t;
  resolved : Endpoint.t list;  (* as bound: tcp port 0 replaced *)
  mutable poller : Poller.t option;  (* set before the IO thread runs *)
  mutable io_thread : Thread.t option;
  mutable io_failure : exn option;  (* what ended the IO loop, if it raised *)
  state_mutex : Mutex.t;
  mutable stopped : bool;
  now : unit -> float;
      (* monotonic wall clock: uptime must never go negative across an NTP
         step (see [Kregret_obs.Control.monotonic_of]) *)
  started : float;
}

let registry t = t.reg
let endpoints t = t.resolved

let poller_of t = Mutex.protect t.state_mutex (fun () -> t.poller)

let live_connections t =
  match poller_of t with Some p -> Poller.live_connections p | None -> 0

let unsent_peak t =
  match poller_of t with Some p -> Poller.unsent_peak p | None -> 0

(* ---- request handling ---------------------------------------------------- *)

let status_str status =
  match status with
  | Registry.Building -> "building"
  | Registry.Ready _ -> "ready"
  | Registry.Failed _ -> "failed"

let error ?retry_after e =
  Obs.Counter.incr c_errors;
  Protocol.error_response ?retry_after e

(* a registry refusal as a wire error; [building] carries the retry hint *)
let refusal t (code, message) =
  let retry_after =
    if code = "building" then Some t.cfg.retry_after else None
  in
  error ?retry_after (Protocol.err ~code message)

let dataset_json info =
  let base =
    [
      ("name", Json.Str info.Registry.name);
      ("path", Json.Str info.Registry.path);
      ("fingerprint", Json.Str info.Registry.fingerprint);
      ("n", Json.int info.Registry.n);
      ("d", Json.int info.Registry.d);
      ("approx", Json.Num info.Registry.approx);
      ("status", Json.Str (status_str info.Registry.status));
    ]
  in
  let extra =
    match info.Registry.status with
    | Registry.Ready { backend = s; build_seconds; _ } ->
        [
          ("sky", Json.int s.Snapshot.n_sky);
          ( "happy",
            Option.fold ~none:Json.Null ~some:Json.int s.Snapshot.n_happy );
          ("materialized", Json.int (Array.length s.Snapshot.order));
          ("live", Json.int s.Snapshot.live);
          ("epoch", Json.int s.Snapshot.epoch);
          ("mutated", Json.Bool info.Registry.mutated);
          ("build_seconds", Json.Num build_seconds);
        ]
    | Registry.Failed m -> [ ("error", Json.Str m) ]
    | Registry.Building -> []
  in
  Json.Obj (base @ extra)

let handle_load t ~name ~path ~approx =
  (* the wire field wins; otherwise the server-wide [--approx] default *)
  let approx = Option.value approx ~default:t.cfg.approx in
  match Registry.load ~approx t.reg ~name ~path with
  | Error m -> error (Protocol.err ~code:"load_failed" m)
  | Ok info ->
      Protocol.ok_response
        [
          ("op", Json.Str "load");
          ("name", Json.Str name);
          ("status", Json.Str (status_str info.Registry.status));
          ("fingerprint", Json.Str info.Registry.fingerprint);
          ("n", Json.int info.Registry.n);
          ("d", Json.int info.Registry.d);
          ("approx", Json.Num info.Registry.approx);
        ]

let ids_json ids = Json.Arr (List.map Json.int ids)

(* One family's answer over a publication. Selections are the registry's
   stable external ids: row indices of the loaded CSV, then fresh ids for
   inserts. *)
let answer ~name family (b : Registry.built) ~k =
  match family with
  | Protocol.Query ->
      let ids, mrr = Registry.backend_query b.backend ~k in
      Ok ([ ("mrr", Json.Num mrr) ], [ ("selection", ids_json ids) ])
  | Protocol.Mrr ->
      let _, mrr = Registry.backend_query b.backend ~k in
      Ok ([ ("mrr", Json.Num mrr) ], [])
  | Protocol.Rank_regret when b.backend.Snapshot.live = 0 ->
      Error
        (Protocol.err ~code:"empty_dataset"
           (Printf.sprintf "dataset %S has no live points" name))
  | Protocol.Rank_regret ->
      let ids, rank = Registry.rank_regret b ~k in
      Ok
        ( [
            ("selection", ids_json ids);
            ("rank_lo", Json.int rank.Kregret_rrr.Rrr.lo);
            ("rank_hi", Json.int rank.Kregret_rrr.Rrr.hi);
            ("exact", Json.Bool rank.Kregret_rrr.Rrr.exact);
          ],
          [] )

(* query and mrr read the stored list, which moves only with the epoch;
   rank-regret ranks against every live row, so a dominated insert or a
   non-skyline delete changes its answer without touching the epoch *)
let version_of family (s : Snapshot.t) =
  match family with
  | Protocol.Query | Protocol.Mrr -> s.epoch
  | Protocol.Rank_regret -> s.basis_version

(* requests never take the server down: an exception is an [internal]
   error frame, and counted *)
let internal e =
  Obs.Counter.incr Poller.handler_exceptions;
  (error (Protocol.err ~code:"internal" (Printexc.to_string e)), false)

(* a computation for a handler worker, as total as the rest of [handle] *)
let work f = Poller.Work (fun () -> try f () with e -> internal e)

(* A read answer is its family's JSON fields, rendered around the
   [cached] and [coalesced] flags. No read is coalesced: the flag is
   always [false], kept so v1 replies keep their shape. *)
let render ~family ~name ~k ~cached (before, after) =
  let request =
    [
      ("op", Json.Str (Protocol.family_name family));
      ("name", Json.Str name);
      ("k", Json.int k);
    ]
  and flags =
    [ ("cached", Json.Bool cached); ("coalesced", Json.Bool false) ]
  in
  Protocol.ok_response (request @ before @ flags @ after)

(* The read skeleton, one for every family and for both threads that run
   it. Cache first: a hit is the row's stored reply, rendered once by the
   computation that filled it. A miss computes the family's answer, stores
   its hit reply and renders its own. Identical misses in flight at once
   each compute; for [rank_regret] they still share the publication's rank
   table, which {!Registry.rank_regret} builds once. Only answers are
   cached, never refusals. *)
let read t ~family ~name ~k (info, b) =
  let key =
    (info.Registry.generation, version_of family b.Registry.backend, k, family)
  in
  match Mutex.protect t.cache_mutex (fun () -> Lru.get t.cache key) with
  | Some reply -> `Hit reply
  | None ->
      `Miss
        (fun () ->
          match answer ~name family b ~k with
          | Error e -> error e
          | Ok fields ->
              let hit = render ~family ~name ~k ~cached:true fields in
              Mutex.protect t.cache_mutex (fun () -> Lru.put t.cache key hit);
              render ~family ~name ~k ~cached:false fields)

(* On the IO thread: a ready dataset whose file kept its stat signature
   answers a hit now and hands a miss to a worker. Anything else goes to a
   worker whole: a refusal, or a moved signature, which [Registry.ready]
   settles by re-hashing the file. *)
let handle_read t ~family ~name ~k =
  match Registry.find t.reg name with
  | Some ({ Registry.status = Registry.Ready b; _ } as info)
    when Registry.unchanged info -> (
      match read t ~family ~name ~k (info, b) with
      | `Hit reply ->
          Obs.Counter.incr c_inline;
          Poller.Answer (reply, false)
      | `Miss compute -> work (fun () -> (compute (), false)))
  | _ ->
      work (fun () ->
          match Registry.ready t.reg name with
          | Error refused -> (refusal t refused, false)
          | Ok publication -> (
              match read t ~family ~name ~k publication with
              | `Hit reply -> (reply, false)
              | `Miss compute -> (compute (), false)))

(* insert/delete/flush: a refusal, or an update the registry applies in
   place because it cannot move the skyline, is answered now, on the IO
   thread; a repair goes to the registry worker, which completes the
   request once it is published *)
let handle_update t ~complete ~name ~kind op =
  let reply = function
    | Error refused -> (refusal t refused, false)
    | Ok o ->
        let base =
          [
            ("op", Json.Str kind);
            ("name", Json.Str name);
            ("applied", Json.Bool o.Registry.applied);
            ("live", Json.int o.Registry.live);
            ("epoch", Json.int o.Registry.epoch);
          ]
        in
        let extra =
          match (o.Registry.inserted_id, kind) with
          | Some id, _ -> [ ("id", Json.int id) ]
          | None, "flush" -> [ ("reclaimed", Json.int o.Registry.reclaimed) ]
          | None, _ -> []
        in
        (Protocol.ok_response (base @ extra), false)
  in
  let reply r = try reply r with e -> internal e in
  match Registry.update t.reg ~name op (fun r -> complete (reply r)) with
  | `Queued -> Poller.Handed_off
  | `Now r -> Poller.Answer (reply r)

let handle_evict t ~name =
  match name with
  | None ->
      Mutex.protect t.cache_mutex (fun () -> Lru.clear t.cache);
      Protocol.ok_response [ ("op", Json.Str "evict"); ("cleared", Json.Str "cache") ]
  | Some name ->
      (* eviction and cache purge key off one atomic registry removal: the
         evict returns the generation of exactly the entry it removed, so a
         re-load racing this evict keeps its own (new) cache rows *)
      let evicted = Registry.evict t.reg name in
      (match evicted with
      | Some generation ->
          Mutex.protect t.cache_mutex (fun () ->
              List.iter
                (fun ((g, _, _, _) as key) ->
                  if g = generation then ignore (Lru.remove t.cache key))
                (Lru.keys_mru t.cache))
      | None -> ());
      Protocol.ok_response
        [
          ("op", Json.Str "evict");
          ("name", Json.Str name);
          ("evicted", Json.Bool (Option.is_some evicted));
        ]

(* the live state, and every count under its Obs name: the [metrics]
   object is the [kregret-obs/v1] document [--metrics] writes at exit *)
let handle_stats t =
  let metrics =
    match Json.parse (Obs.Export.to_json ()) with
    | Ok doc -> doc
    | Error m -> failwith ("metrics document: " ^ m)
  in
  Protocol.ok_response
    [
      ("op", Json.Str "stats");
      ("proto", Json.Str Protocol.version);
      ("uptime_seconds", Json.Num (t.now () -. t.started));
      ("datasets", Json.int (List.length (Registry.list t.reg)));
      ("connections", Json.Obj [ ("live", Json.int (live_connections t)) ]);
      ( "cache",
        Json.Obj
          [
            ("capacity", Json.int (Lru.capacity t.cache));
            ( "entries",
              Json.int
                (Mutex.protect t.cache_mutex (fun () -> Lru.length t.cache)) );
          ] );
      ("metrics", metrics);
    ]

let handle_list t =
  Protocol.ok_response
    [
      ("op", Json.Str "list");
      ("datasets", Json.Arr (List.map dataset_json (Registry.list t.reg)));
    ]

(* the poller stops taking input, and the registry answers its queued
   updates now, so their connections drain instead of timing out *)
let signal_stop t =
  (match poller_of t with Some p -> Poller.stop p | None -> ());
  Registry.stop t.reg

(* Parse once, on the IO thread, and say who answers: the IO thread
   itself, a handler worker, or the registry worker. *)
let handle_request t ~complete line =
  Obs.Counter.incr c_requests;
  match Protocol.parse_request ~max_line:t.cfg.max_line line with
  | Error e -> Poller.Answer (error e, false)
  | Ok req -> (
      try
        match req with
        | Protocol.Ping ->
            Poller.Answer (Protocol.ok_response [ ("op", Json.Str "ping") ], false)
        | Protocol.Read { family; name; k } -> handle_read t ~family ~name ~k
        | Protocol.Insert { name; point } ->
            handle_update t ~complete ~name ~kind:"insert" (`Insert point)
        | Protocol.Delete { name; id } ->
            handle_update t ~complete ~name ~kind:"delete" (`Delete id)
        | Protocol.Flush { name } ->
            handle_update t ~complete ~name ~kind:"flush" `Flush
        | Protocol.List -> work (fun () -> (handle_list t, false))
        | Protocol.Stats -> work (fun () -> (handle_stats t, false))
        | Protocol.Shutdown ->
            work (fun () ->
                signal_stop t;
                (Protocol.ok_response [ ("op", Json.Str "shutdown") ], true))
        | Protocol.Load { name; path; approx } ->
            work (fun () -> (handle_load t ~name ~path ~approx, false))
        | Protocol.Evict { name } -> work (fun () -> (handle_evict t ~name, false))
      with e -> Poller.Answer (internal e))

(* ---- lifecycle ------------------------------------------------------------ *)

let temp_socket_counter = Atomic.make 0

let temp_socket_path () =
  let base name dir = Filename.concat dir name in
  let name =
    Printf.sprintf "ks-%d-%d.sock" (Unix.getpid ())
      (Atomic.fetch_and_add temp_socket_counter 1)
  in
  let candidate = base name (Filename.get_temp_dir_name ()) in
  (* sun_path is ~108 bytes; sandboxed TMPDIRs can blow past it *)
  if String.length candidate <= 90 then candidate else base name "/tmp"

(* bind every configured endpoint or none: a partial bind closes what it
   opened and fails the start *)
let bind_all eps =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | ep :: rest -> (
        match Endpoint.listen ep with
        | Ok fd -> go ((ep, fd) :: acc) rest
        | Error m ->
            List.iter (fun (_, fd) -> try Unix.close fd with _ -> ()) acc;
            Error (Printf.sprintf "%s: %s" (Endpoint.to_string ep) m))
  in
  go [] eps

let start cfg =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  match bind_all cfg.listeners with
  | Error m -> Error m
  | Ok bound ->
      let resolved =
        List.map (fun (ep, fd) -> Endpoint.local_of_fd ~fd ep) bound
      in
      let now = Obs.Control.monotonic_of Unix.gettimeofday in
      let t =
        {
          cfg;
          reg = Registry.create ?max_length:cfg.max_length ();
          cache = Lru.create ~capacity:cfg.cache_capacity;
          cache_mutex = Mutex.create ();
          resolved;
          poller = None;
          io_thread = None;
          io_failure = None;
          state_mutex = Mutex.create ();
          stopped = false;
          now;
          started = now ();
        }
      in
      let poller =
        Poller.create ~workers:cfg.workers ~max_line:cfg.max_line
          ~listeners:(List.map snd bound)
          ~hello:Protocol.hello
          ~refuse:
            (Protocol.error_response
               (Protocol.err ~code:"too_many_connections"
                  "the server is at its connection limit; try again later"))
          ~handle:(handle_request t)
          ~too_long:(fun () ->
            error
              (Protocol.err ~code:"frame_too_large"
                 (Printf.sprintf
                    "frame exceeds the %d-byte limit; closing connection"
                    t.cfg.max_line)))
          ()
      in
      t.poller <- Some poller;
      t.io_thread <-
        Some
          (Thread.create
             (fun () ->
               try Poller.run poller
               with e ->
                 Mutex.protect t.state_mutex (fun () -> t.io_failure <- Some e))
             ());
      Ok t

let start_exn cfg =
  match start cfg with Ok t -> t | Error m -> failwith ("Server.start: " ^ m)

let wait t =
  (match Mutex.protect t.state_mutex (fun () -> t.io_thread) with
  | Some th -> Thread.join th
  | None -> ());
  let cleanup =
    Mutex.protect t.state_mutex (fun () ->
        if t.stopped then false
        else begin
          t.stopped <- true;
          true
        end)
  in
  if cleanup then begin
    Registry.shutdown t.reg;
    List.iter Endpoint.unlink_if_unix t.resolved
  end;
  Option.iter raise (Mutex.protect t.state_mutex (fun () -> t.io_failure))

let stop t =
  signal_stop t;
  wait t
