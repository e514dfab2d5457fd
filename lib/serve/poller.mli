(** The event-driven IO core of the server: one readiness loop
    ([Unix.select]) multiplexing every listener and every connection, a
    self-pipe for wakeups, and a small worker pool for the requests that
    need a computation, so the IO loop itself never blocks on one.

    Shape — each request goes straight to the thread that does its work:

    - the {e IO thread} (the caller of {!run}) owns every file descriptor:
      it accepts, reads, frames lines out of per-connection read buffers,
      flushes per-connection write buffers, and is the only thread that
      ever closes an fd — so the select sets can never race a close;
    - it parses each frame once, through [handle], whose {!outcome} says
      who answers it. An {!Answer} (a cached read, [ping], a framing or
      parse error, a refused update, an update applied in place because
      it cannot move the skyline) is appended at once and written in the
      same loop iteration; {!Work} (a cache miss, a rank table, a load)
      goes to one of the [workers] threads; {!Handed_off} (a repair: an
      update that moves the skyline, a compaction, a flush) was given to
      another thread — the registry worker — with the request's
      completion;
    - every way a request finishes (inline, worker, hand-off) goes through
      one completion: append the reply, clear the connection's in-flight
      mark, and wake the IO thread when it came from elsewhere;
    - per connection, a frame is dispatched only when it is at the head of
      the queue and no request of that connection is in flight, and the
      next frame is dispatched from one place on the IO thread, so the
      protocol's strict request→response ordering survives pipelining;
    - {!stop} writes one byte to a self-pipe the select always watches —
      no transport-specific poke, so it works identically across Unix and
      TCP listeners;
    - connection state lives in a table of {e live} connections only:
      closing a connection removes its entry, so a long-lived server's
      footprint is bounded by its concurrency, not its history.

    Caps (constants, not options): at most {!max_connections} live
    connections, and no connection whose descriptor number is past
    [FD_SETSIZE] ([select] cannot watch it) — an extra connection gets
    the [refuse] frame in place of the hello and is closed. A connection
    holding more than {!max_unsent} unsent reply bytes (a client that
    pipelines and never reads) is neither read nor answered until its
    output drains below the mark, so its memory stays bounded. When
    [accept] runs out of descriptors (EMFILE, ENFILE), the connection
    stays in the backlog and the listeners leave the select set until a
    connection closes or a 100 ms back-off passes, so the loop waits
    instead of spinning on a listener that stays readable.

    On {!stop} the loop closes the listeners, stops reading, drains
    in-flight requests and write buffers (for at most 5 s, after which
    survivors are force-closed), joins the workers and returns from
    {!run}. *)

type t

(** A response frame (without its newline) and whether to close the
    connection once it is flushed. An empty frame writes nothing. *)
type reply = string * bool

(** Who answers a request frame. *)
type outcome =
  | Answer of reply  (** answered now, on the IO thread *)
  | Work of (unit -> reply)  (** a computation for a worker thread *)
  | Handed_off
      (** given to another thread, which calls the request's completion
          exactly once (in the server: a repair, on the registry
          worker) *)

val max_connections : int
(** Live connections the poller serves at once (1000). *)

val max_unsent : int
(** The per-connection high-water mark of unsent reply bytes (64 KiB). *)

val handler_exceptions : Kregret_obs.Counter.t
(** [serve.handler_exceptions]: exceptions caught around a request
    handler, by the poller's catch-alls and by the server's [internal]
    error frames. The poller also counts accepted connections
    ([serve.connections]) and connections turned away at the caps
    ([serve.refused_connections]). *)

val create :
  ?workers:int ->
  ?max_line:int ->
  listeners:Unix.file_descr list ->
  hello:string ->
  refuse:string ->
  handle:(complete:(reply -> unit) -> string -> outcome) ->
  too_long:(unit -> string) ->
  unit ->
  t
(** [create ~listeners ~hello ~refuse ~handle ~too_long ()] takes ownership
    of the (already bound and listening, non-blocking) listener fds and
    spawns the worker pool ([workers] threads, default 4). [hello] is
    written to every accepted connection, [refuse] to one turned away at
    the caps. [handle ~complete line] runs on the IO thread, with the
    poller's lock held: it must be total, must not block, and must not
    call back into the poller; a {!Handed_off} request is finished by
    calling [complete] from another thread. [too_long ()] is the response
    for a frame exceeding [max_line] bytes, answered inline (the
    connection is closed after it flushes — past the limit the framing is
    untrusted). *)

val run : t -> unit
(** The IO loop. Blocks until {!stop}, then drains and joins the workers.
    Call exactly once, from a dedicated thread. Should the loop itself
    raise, every connection is closed and the workers are joined before
    the exception propagates. *)

val stop : t -> unit
(** Ask {!run} to wind down. Non-blocking, idempotent, safe from any
    thread (including a worker inside a {!Work} — the [shutdown] verb). *)

val live_connections : t -> int
(** Connections currently open — the size of the live table, not a
    historical count. *)

val unsent_peak : t -> int
(** The most unsent reply bytes any one connection has held since
    {!create}: at most {!max_unsent} plus one reply. *)
