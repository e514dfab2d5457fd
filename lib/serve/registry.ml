module Vector = Kregret_geom.Vector
module Dataset = Kregret_dataset.Dataset
module Csv_io = Kregret_dataset.Csv_io
module Dynamic = Kregret.Dynamic
module Snapshot = Kregret.Snapshot
module Dd = Kregret_hull.Dd
module Pipeline = Kregret_approx.Pipeline
module Rrr = Kregret_rrr.Rrr
module Obs = Kregret_obs

let c_loads =
  Obs.Registry.counter "serve.registry.loads" ~help:"load requests accepted"

let c_builds =
  Obs.Registry.counter "serve.registry.builds" ~help:"background builds completed"

let c_build_failures =
  Obs.Registry.counter "serve.registry.build_failures"
    ~help:"background builds that raised"

let c_build_retries =
  Obs.Registry.counter "serve.registry.build_retries"
    ~help:"failed builds re-enqueued by a re-load of the unchanged file"

let c_updates =
  Obs.Registry.counter "serve.registry.updates"
    ~help:"insert/delete/flush jobs applied on the worker"

let c_inline_updates =
  Obs.Registry.counter "serve.registry.inline_updates"
    ~help:"epoch-preserving inserts/deletes applied on the caller's thread"

let c_update_failures =
  Obs.Registry.counter "serve.registry.update_failures"
    ~help:"update jobs answered with an error"

let c_stale =
  Obs.Registry.counter "serve.stale_rejections"
    ~help:"queries rejected because the CSV changed on disk after load"

let g_datasets =
  Obs.Registry.gauge "serve.registry.datasets" ~help:"datasets currently registered"

(* What queries read: one snapshot, republished after every build and
   every update that moved its epoch or basis version. The live
   [Dynamic.t] itself has one writer at a time (see [update]). *)
type backend = Snapshot.t

(* One basis and one rank table per publication: the first rank_regret
   read of a [built] builds both, later reads of any k run only the
   greedy. The cell is keyed to the snapshot it was built for by physical
   equality, so a [built] that reached another snapshot through a copy
   rebuilds instead of answering from a stale table. Readers that arrive
   during the build wait on the lock rather than build their own, so
   [basis] runs once per publication, on one thread at a time. *)
type rank_cell = {
  lock : Mutex.t;
  mutable slot : (backend * Snapshot.basis * Rrr.table) option;
}

type built = { backend : backend; build_seconds : float; rank_cell : rank_cell }

let built_of ~build_seconds backend =
  { backend; build_seconds; rank_cell = { lock = Mutex.create (); slot = None } }

let backend_query = Snapshot.query

let rank_table b =
  let cell = b.rank_cell and s = b.backend in
  Mutex.protect cell.lock (fun () ->
      match cell.slot with
      | Some (owner, basis, table) when owner == s -> (basis, table)
      | _ ->
          let basis = s.basis () in
          let table = Rrr.table ~candidates:basis.candidates basis.rows in
          cell.slot <- Some (s, basis, table);
          (basis, table))

(* Rank-regret over the published basis, with its candidates: exact
   answers track every update, and an ε build hands the engine every input
   row. The greedy prefix is max_size-stable, so selections
   of every k share the table. *)
let rank_regret b ~k =
  if b.backend.live = 0 then
    invalid_arg "rank_regret: dataset has no live points";
  let basis, table = rank_table b in
  let sel, rank = Rrr.query (Rrr.select ~max_size:k table) ~k in
  (List.map (fun r -> basis.ids.(r)) sel, rank)

type status = Building | Ready of built | Failed of string

(* The wire error for a name that cannot answer: absent, still building or
   failed. The one copy of these messages, for reads and both update
   paths; a [Ready] status here belongs to an entry re-loaded under the
   caller, which reads as absent. *)
let unavailable name = function
  | Some Building ->
      ("building", Printf.sprintf "dataset %S is still building" name)
  | Some (Failed m) ->
      ("build_failed", Printf.sprintf "dataset %S failed to build: %s" name m)
  | None | Some (Ready _) ->
      ("not_found", Printf.sprintf "dataset %S is not loaded" name)

type info = {
  name : string;
  generation : int;
  path : string;
  fingerprint : string;
  stat : Fingerprint.stat_sig;
  n : int;
  d : int;
  approx : float;
  mutated : bool;
  status : status;
}

type update_op = [ `Insert of Vector.t | `Delete of int | `Flush ]

type update_outcome = {
  applied : bool;
  inserted_id : int option;
  reclaimed : int;
  epoch : int;
  live : int;
}

type update_reply = (update_outcome, string * string) result

type entry = {
  e_name : string;
  e_generation : int;  (* unique per registration, never reused *)
  e_path : string;
  e_fingerprint : string;
  mutable e_stat : Fingerprint.stat_sig;  (* of the bytes behind e_fingerprint *)
  e_approx : float;  (* 0. = exact; >0. = ε-kernel tier, static *)
  points : Vector.t array;  (* normalized rows, the initial id space *)
  mutable e_dyn : Dynamic.t option;  (* Ready exact entries only *)
  mutable e_mutated : bool;  (* diverged from the CSV via updates *)
  mutable e_status : status;
  mutable e_pending : int;  (* updates queued on, or running on, the worker *)
}

type job =
  | Build of string * string  (* name, fingerprint *)
  | Update of {
      u_entry : entry;  (* counted in its [e_pending] until answered *)
      u_op : update_op;
      u_done : update_reply -> unit;  (* called once, outside the mutex *)
    }

type t = {
  mutex : Mutex.t;
  cond : Condition.t;
  entries : (string, entry) Hashtbl.t;
  queue : job Queue.t;
  max_length : int option;
  mutable generations : int;  (* registrations so far *)
  mutable stop : bool;
  mutable worker : Thread.t option;
}

let snapshot e =
  {
    name = e.e_name;
    generation = e.e_generation;
    path = e.e_path;
    fingerprint = e.e_fingerprint;
    stat = e.e_stat;
    n = Array.length e.points;
    d = (if Array.length e.points = 0 then 0 else Vector.dim e.points.(0));
    approx = e.e_approx;
    mutated = e.e_mutated;
    status = e.e_status;
  }

(* The entry an update may run against and its state, or the wire error
   refusing it: one check for the enqueue and for the worker. An ε-kernel
   build is a static materialization with no incremental repair. *)
let update_target t name =
  match Hashtbl.find_opt t.entries name with
  | None -> Error (unavailable name None)
  | Some e when e.e_approx > 0. ->
      Error
        ( "static_dataset",
          Printf.sprintf
            "dataset %S is an ε-kernel approximation and static; re-load it \
             without \"approx\" to update it"
            name )
  | Some ({ e_status = Ready _; e_dyn = Some dyn; _ } as e) -> Ok (e, dyn)
  | Some { e_status = Ready _; e_dyn = None; _ } ->
      Error
        ("internal", Printf.sprintf "dataset %S is ready with no state" name)
  | Some e -> Error (unavailable name (Some e.e_status))

(* An ε build's publication, static: epoch 0, every input row as the
   rank basis (ids = row indices, uncopied), and the kernel's skyline as
   the rank candidates *)
let static_of points (p : Pipeline.t) =
  let n = Array.length points in
  let basis =
    { Snapshot.ids = Array.init n Fun.id; rows = points; candidates = p.sky }
  in
  {
    Snapshot.epoch = 0;
    live = n;
    n_sky = Array.length p.sky;
    n_happy = Some p.n_happy;
    order = p.order;
    mrr = p.mrr;
    basis_version = 0;
    basis = (fun () -> basis);
  }

(* The full offline pipeline of the paper. Exact: materialized as a
   [Dynamic.t] so later updates repair incrementally. ε: the static
   [Pipeline.run] over the ε-kernel, no [Dynamic] behind it. Runs on the
   build thread; the hot loops inside use the global domain pool. *)
let build ~max_length ~approx points =
  let t0 = Unix.gettimeofday () in
  try
    Obs.Span.with_ "serve.build" (fun () ->
        let dyn, backend =
          if approx > 0. then
            ( None,
              static_of points (Pipeline.run ?max_length ~eps:approx points) )
          else
            let dyn = Dynamic.create ?max_length points in
            (Some dyn, Dynamic.snapshot dyn)
        in
        Obs.Counter.incr c_builds;
        (dyn, Ready (built_of ~build_seconds:(Unix.gettimeofday () -. t0) backend)))
  with e ->
    Obs.Counter.incr c_build_failures;
    (None, Failed (Printexc.to_string e))

let outcome dyn ?inserted_id ?(reclaimed = 0) applied =
  Ok
    {
      applied;
      inserted_id;
      reclaimed;
      epoch = Dynamic.epoch dyn;
      live = Dynamic.live dyn;
    }

(* apply any update, repairs included: on the worker thread, off the
   mutex. The [Dynamic] raises [Invalid_argument] on malformed points,
   which maps to the [bad_point] wire error. *)
let apply_update dyn op =
  try
    match op with
    | `Insert p -> outcome dyn ~inserted_id:(Dynamic.insert dyn p) true
    | `Delete id -> outcome dyn (Dynamic.delete dyn id)
    | `Flush ->
        let reclaimed = Dynamic.flush dyn in
        outcome dyn ~reclaimed (reclaimed > 0)
  with Invalid_argument m -> Error ("bad_point", m)

(* apply an update in place iff [Dynamic.apply_cheap] finds it cheap:
   on the caller's thread, mutex held *)
let apply_in_place dyn op =
  match Dynamic.apply_cheap dyn op with
  | None -> None
  | Some (Dynamic.Inserted id) -> Some (outcome dyn ~inserted_id:id true)
  | Some (Dynamic.Deleted ok) -> Some (outcome dyn ok)
  | exception Invalid_argument m -> Some (Error ("bad_point", m))

let count applied r =
  Obs.Counter.incr (if Result.is_ok r then applied else c_update_failures)

(* Mutex held. The one way an update publishes, on either thread: a new
   snapshot iff the epoch or the basis version moved since the published
   one, and only while [e] still owns its name — an evict or a re-load
   that raced the update owns it now. A republish means the live rows
   moved, so the CSV no longer describes the dataset. Anything else (a
   rejected insert, a delete of an unknown id, a flush) keeps the
   publication and the rank table it may hold. *)
let publish t e dyn =
  match (Hashtbl.find_opt t.entries e.e_name, e.e_status) with
  | Some e', Ready b when e' == e ->
      let s = Dynamic.snapshot dyn in
      if
        s.epoch <> b.backend.epoch
        || s.basis_version <> b.backend.basis_version
      then begin
        e.e_status <- Ready (built_of ~build_seconds:b.build_seconds s);
        e.e_mutated <- true
      end
  | _ -> ()

let shut_down = ("internal", "registry is shut down")

let worker_loop t =
  Mutex.lock t.mutex;
  while not t.stop do
    if Queue.is_empty t.queue then Condition.wait t.cond t.mutex
    else begin
      match Queue.pop t.queue with
      | Build (name, fp) -> (
          match Hashtbl.find_opt t.entries name with
          | Some e
            when String.equal e.e_fingerprint fp
                 && (match e.e_status with Building -> true | _ -> false) ->
              let points = e.points and approx = e.e_approx in
              Mutex.unlock t.mutex;
              let dyn, status = build ~max_length:t.max_length ~approx points in
              Mutex.lock t.mutex;
              (* the entry may have been evicted or replaced while we built —
                 including a same-bytes re-load at a different ε, whose own
                 Build job is still queued *)
              (match Hashtbl.find_opt t.entries name with
              | Some e'
                when String.equal e'.e_fingerprint fp
                     && Float.equal e'.e_approx approx ->
                  e'.e_dyn <- dyn;
                  e'.e_status <- status
              | _ -> ())
          | _ -> ()  (* superseded or evicted job *))
      | Update { u_entry = e; u_op; u_done } ->
          (* re-checked here: an evict or a re-load may have taken the
             name while the job sat queued, and only this entry's state is
             ours to write *)
          let r =
            match update_target t e.e_name with
            | Ok (e', dyn) when e' == e ->
                Mutex.unlock t.mutex;
                let r = apply_update dyn u_op in
                Mutex.lock t.mutex;
                publish t e dyn;
                r
            | Ok _ -> Error (unavailable e.e_name None)
            | Error refused -> Error refused
          in
          e.e_pending <- e.e_pending - 1;
          (* the reply goes out with no registry lock held *)
          Mutex.unlock t.mutex;
          count c_updates r;
          u_done r;
          Mutex.lock t.mutex
    end
  done;
  Mutex.unlock t.mutex

let create ?max_length () =
  let t =
    {
      mutex = Mutex.create ();
      cond = Condition.create ();
      entries = Hashtbl.create 16;
      queue = Queue.create ();
      max_length;
      generations = 0;
      stop = false;
      worker = None;
    }
  in
  t.worker <- Some (Thread.create worker_loop t);
  t

let stop t =
  let queued =
    Mutex.protect t.mutex (fun () ->
        t.stop <- true;
        Condition.broadcast t.cond;
        let queued =
          Queue.fold
            (fun acc -> function
              | Update u ->
                  u.u_entry.e_pending <- u.u_entry.e_pending - 1;
                  u.u_done :: acc
              | Build _ -> acc)
            [] t.queue
        in
        Queue.clear t.queue;
        List.rev queued)
  in
  List.iter
    (fun u_done ->
      Obs.Counter.incr c_update_failures;
      u_done (Error shut_down))
    queued

let shutdown t =
  stop t;
  let worker =
    Mutex.protect t.mutex (fun () ->
        let w = t.worker in
        t.worker <- None;
        w)
  in
  match worker with Some w -> Thread.join w | None -> ()

let load ?(approx = 0.) t ~name ~path =
  let approx = if approx > 0. then approx else 0. in
  (* one read serves both the fingerprint and the parser, so the hash always
     matches the points actually loaded (hashing and re-reading the file
     separately raced concurrent rewrites) *)
  let contents =
    match
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let c = really_input_string ic (in_channel_length ic) in
          (* fstat the descriptor the bytes came from: the signature can
             never describe a different file than the hash does *)
          let st = Unix.fstat (Unix.descr_of_in_channel ic) in
          (c, Fingerprint.sig_of_stats st))
    with
    | c -> Ok c
    | exception Sys_error m -> Error m
    | exception Unix.Unix_error (e, _, _) -> Error (path ^ ": " ^ Unix.error_message e)
    | exception End_of_file -> Error (path ^ ": truncated read")
  in
  match contents with
  | Error m -> Error m
  | Ok (contents, stat_sig) -> (
      let fp = Fingerprint.of_string contents in
      match
        try Ok (Dataset.normalize (Csv_io.parse_string ~name ~path contents))
        with
        | Failure m -> Error m
        | Invalid_argument m -> Error (path ^ ": " ^ m)
      with
      | Error m -> Error m
      | Ok ds when ds.Dataset.dim > Dd.max_dim ->
          (* every build runs GeoGreedy on [Dd], which refuses such a
             dimension: refuse the load instead of a build bound to fail *)
          Error
            (Printf.sprintf "%s: %d dimensions; builds support at most %d" path
               ds.Dataset.dim Dd.max_dim)
      | Ok ds ->
          Mutex.protect t.mutex (fun () ->
              if t.stop then Error "registry is shut down"
              else begin
                Obs.Counter.incr c_loads;
                match Hashtbl.find_opt t.entries name with
                | Some ({ e_status = Failed _; _ } as e)
                  when String.equal e.e_fingerprint fp
                       && Float.equal e.e_approx approx ->
                    (* same bytes, but the build failed (possibly
                       transiently): an explicit re-load retries instead of
                       parroting the stale failure forever *)
                    Obs.Counter.incr c_build_retries;
                    e.e_stat <- stat_sig;
                    e.e_status <- Building;
                    e.e_dyn <- None;
                    Queue.push (Build (name, fp)) t.queue;
                    Condition.broadcast t.cond;
                    Ok (snapshot e)
                | Some e
                  when String.equal e.e_fingerprint fp
                       && Float.equal e.e_approx approx
                       && not e.e_mutated ->
                    (* unchanged bytes at the same ε: keep the build (or
                       its result) — concurrent loads of the same file are
                       idempotent and enqueue no duplicate job. A different
                       ε is a different materialization, and a mutated
                       entry no longer holds the file's rows: both fall
                       through to a fresh registration and rebuild. The
                       signature still refreshes: the bytes were
                       re-verified just now, so a mere touch stops forcing
                       re-hashes on every query. *)
                    e.e_stat <- stat_sig;
                    Ok (snapshot e)
                | _ ->
                    t.generations <- t.generations + 1;
                    let e =
                      {
                        e_name = name;
                        e_generation = t.generations;
                        e_path = path;
                        e_fingerprint = fp;
                        e_stat = stat_sig;
                        e_approx = approx;
                        points = ds.Dataset.points;
                        e_dyn = None;
                        e_mutated = false;
                        e_status = Building;
                        e_pending = 0;
                      }
                    in
                    Hashtbl.replace t.entries name e;
                    Obs.Gauge.set_int g_datasets (Hashtbl.length t.entries);
                    Queue.push (Build (name, fp)) t.queue;
                    Condition.broadcast t.cond;
                    Ok (snapshot e)
              end))

(* One writer per dataset: an update is applied in place only while
   none of its dataset's is queued or running on the worker; otherwise it
   queues behind them, so each dataset's updates apply in arrival order. *)
let update t ~name op u_done =
  let now =
    Mutex.protect t.mutex (fun () ->
        if t.stop then Some (Error shut_down)
        else
          match update_target t name with
          | Error _ as refused -> Some refused
          | Ok (e, dyn) -> (
              match if e.e_pending = 0 then apply_in_place dyn op else None with
              | Some _ as r ->
                  publish t e dyn;
                  r
              | None ->
                  e.e_pending <- e.e_pending + 1;
                  Queue.push (Update { u_entry = e; u_op = op; u_done }) t.queue;
                  Condition.broadcast t.cond;
                  None))
  in
  match now with
  | None -> `Queued
  | Some r ->
      count c_inline_updates r;
      `Now r

let find t name =
  Mutex.protect t.mutex (fun () ->
      Option.map snapshot (Hashtbl.find_opt t.entries name))

let list t =
  Mutex.protect t.mutex (fun () ->
      Hashtbl.fold (fun _ e acc -> snapshot e :: acc) t.entries []
      |> List.sort (fun a b -> String.compare a.name b.name))

(* Returns the evicted entry's generation so the caller can purge exactly
   the cache rows of the entry that was removed: reading it with a separate
   [find] first raced a concurrent re-load, leaving the new entry's rows
   purged and the dead entry's rows behind. *)
let evict t name =
  Mutex.protect t.mutex (fun () ->
      match Hashtbl.find_opt t.entries name with
      | None -> None
      | Some e ->
          Hashtbl.remove t.entries name;
          Obs.Gauge.set_int g_datasets (Hashtbl.length t.entries);
          Some e.e_generation)

let unchanged info =
  (* a mutated dataset has diverged from its CSV by design: the file is a
     seed, not the source of truth, and rewrites of it are irrelevant until
     the next explicit re-load. Otherwise the per-query common case: same
     inode, size and mtime as when the bytes were hashed *)
  info.mutated
  || match Fingerprint.sig_of_path info.path with
     | Ok s -> s = info.stat
     | Error _ -> false

let fresh _t info =
  if unchanged info then Ok ()
  else
    match Fingerprint.of_file info.path with
    | Error m ->
        Obs.Counter.incr c_stale;
        Error
          (Printf.sprintf
             "dataset %S: backing file %s is no longer readable (%s); re-load it"
             info.name info.path m)
    | Ok fp ->
        if String.equal fp info.fingerprint then Ok ()
        else begin
          Obs.Counter.incr c_stale;
          Error
            (Printf.sprintf
               "dataset %S: %s changed on disk since load (loaded %s, file now \
                hashes to %s); re-load it"
               info.name info.path info.fingerprint fp)
        end

let ready t name =
  match find t name with
  | Some ({ status = Ready b; _ } as info) -> (
      match fresh t info with
      | Ok () -> Ok (info, b)
      | Error m -> Error ("stale_dataset", m))
  | found -> Error (unavailable name (Option.map (fun i -> i.status) found))
