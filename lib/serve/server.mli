(** The serving loop: an event-driven server speaking {!Protocol.version}
    over any mix of Unix-domain and TCP listeners ({!Endpoint}), backed by
    the dataset {!Registry} (background builds, exact or ε-kernel), the
    {!Lru} result cache and the single-flight {!Batcher}.

    Architecture: a single IO thread runs a {!Poller} readiness loop over
    every listener and every connection, and each request goes straight to
    the thread that does its work. The IO thread parses every frame once
    and answers what needs no computation itself, writing the reply in
    the same loop iteration: cache hits (each cache row holds the exact
    bytes of its hit reply, rendered once by the computation that filled
    it, so a hit renders nothing), [ping], malformed frames, refused
    updates, and [insert]/[delete]s that cannot move the skyline, which
    {!Registry.update} applies in place. Cache misses, [rank_regret]
    tables and the admin verbs ([load], [list], [stats], [evict],
    [shutdown]) go to the [workers] pool, so none of them stalls accepts
    or other connections' IO. Repairs — an update that moves the skyline,
    a compaction-triggering delete, a [flush] — go to the registry
    worker, which completes the request once its repair is published. Shutdown
    wakes the loop through a self-pipe, which works identically for both
    listener kinds. Connection state is kept for {e live} connections
    only — a busy server's footprint is bounded by its concurrency, not by
    how many connections it has ever accepted — and both the live count
    and each connection's unsent output are capped ({!Poller}).

    Design invariants (enforced by [test/test_serve.ml] and the [serve]
    oracle of the fuzzer):

    - a served selection/mrr is {e bit-identical} to a direct
      {!Kregret.Stored_list} prefix read on the same build — including when
      it comes from the cache, from a coalesced batch, or over TCP instead
      of a Unix socket;
    - malformed input of any shape is answered with a structured error and
      never terminates the server (an oversized frame additionally closes
      that one connection, because its framing is no longer trustworthy);
    - a query against a still-building dataset returns a [building] error
      with a [retry_after] hint instead of blocking the IO loop;
    - a query against a dataset whose CSV changed on disk after [load] is
      rejected with [stale_dataset] (never silently served from the stale
      StoredList).

    Counts live in {!Kregret_obs} only: requests, errors, connections,
    cache and batch events, inline answers and handler exceptions are its
    [serve.*] counters, and the [stats] verb replies with its snapshot.
    They are per process, not per server: they move only while recording
    is on ({!Kregret_obs.Control.set_enabled}), as it always is in
    [kregret_serve], and two servers in one process share them. *)

type config = {
  listeners : Endpoint.t list;  (** every endpoint to listen on *)
  cache_capacity : int;  (** {!Lru} capacity; [0] disables caching *)
  max_line : int;  (** per-frame byte limit *)
  retry_after : float;  (** seconds hint attached to [building] errors *)
  max_length : int option;  (** StoredList materialization cap ([--max-k]) *)
  workers : int;  (** request-handler threads behind the IO loop *)
  approx : float;
      (** default ε-kernel resolution for [load]s that don't say;
          [0.] = exact *)
}

(** [config ~listeners ()] with defaults: cache 128, 64 KiB frames,
    [retry_after] 0.05 s, full materialization, 4 workers, exact loads.
    [?socket_path] appends a Unix-domain listener (the pre-TCP calling
    convention); at least one listener is required. Raises
    [Invalid_argument] on a negative [cache_capacity], a [max_line],
    [max_length] or [workers] below 1, a negative or non-finite
    [retry_after], an [approx] outside [[0, 1]], or no listener. *)
val config :
  ?cache_capacity:int ->
  ?max_line:int ->
  ?retry_after:float ->
  ?max_length:int ->
  ?workers:int ->
  ?approx:float ->
  ?listeners:Endpoint.t list ->
  ?socket_path:string ->
  unit ->
  config

type t

(** [start config] binds every listener (replacing stale Unix socket
    files), starts the IO thread, the worker pool and the registry's build
    worker, and returns immediately. Installs a [SIGPIPE] ignore handler
    (a client hanging up mid-response must not kill the process).
    [Error] names the endpoint that failed to bind — nothing is left
    half-bound. *)
val start : config -> (t, string) result

(** [start_exn config] — {!start}, raising [Failure] on a bind error. *)
val start_exn : config -> t

(** [registry t] — for in-process preloading ([--preload]) and tests. *)
val registry : t -> Registry.t

(** [endpoints t] — the listeners as actually bound: a [tcp:HOST:0]
    request reports its kernel-assigned port. Order follows
    [config.listeners]. *)
val endpoints : t -> Endpoint.t list

(** [live_connections t] — currently open connections (the poller's live
    table, not a historical count). *)
val live_connections : t -> int

(** [unsent_peak t] — the most unsent reply bytes one connection has held
    (see {!Poller.unsent_peak}): a client that never reads stops being
    answered at {!Poller.max_unsent}. *)
val unsent_peak : t -> int

(** [signal_stop t] asks the IO loop to stop (what the [shutdown] verb
    does internally — one byte down the poller's self-pipe) and stops the
    registry ({!Registry.stop}), so an update still queued behind a build
    is answered with the shutdown error instead of holding the drain.
    Non-blocking, idempotent. *)
val signal_stop : t -> unit

(** [wait t] blocks until the server stops (a [shutdown] request or
    {!signal_stop}): the poller drains in-flight requests and write
    buffers (force-closing stragglers after its drain timeout, so this
    cannot hang), the workers and build worker are joined, and Unix socket
    files are removed. Should the IO loop itself have raised, that
    exception is re-raised here, after the same cleanup. *)
val wait : t -> unit

(** [stop t] — {!signal_stop} followed by {!wait}. Idempotent. *)
val stop : t -> unit

(** A writable short socket path for tests and examples:
    the system temp dir when short enough for [sun_path], else [/tmp].
    Unique per call within the process. *)
val temp_socket_path : unit -> string
