(** The [kregret-serve/v1] wire protocol.

    Line-oriented JSON over a stream socket — Unix-domain or TCP, the
    frames are transport-agnostic (see {!Endpoint}): each request and
    each response is exactly one JSON object on one ['\n']-terminated line.
    On connect the server sends a hello frame
    [{"ok":true,"hello":"kregret-serve/v1"}]; after that, strictly
    request→response, in order, per connection.

    Requests ([op] selects the verb; a field the verb does not read is
    ignored):

    {v
      {"op":"load","name":NAME,"path":PATH}   register + build a CSV dataset
      {"op":"load","name":NAME,"path":PATH,"approx":EPS}
                                              same, through the ε-kernel
                                              reduction (answers carry a
                                              certified regret bound; the
                                              dataset becomes static)
      {"op":"query","name":NAME,"k":K}        k-regret selection + its mrr
      {"op":"mrr","name":NAME,"k":K}          mrr only
      {"op":"rank_regret","name":NAME,"k":K}  rank-regret representatives:
                                              a <= K subset minimizing the
                                              certified max rank, with its
                                              [rank_lo]/[rank_hi]/[exact]
                                              certificate
      {"op":"list"}                           registry contents + statuses;
                                              a ready entry's "happy" is
                                              null until an exact build's
                                              happy screen is complete
                                              (its first skyline-moving
                                              update completes it)
      {"op":"stats"}                          live state + the metrics
                                              snapshot (below)
      {"op":"evict"}                          clear the result cache
      {"op":"evict","name":NAME}              drop a dataset (and its cache rows)
      {"op":"insert","name":NAME,"point":[X,...]}  add a point; answers its id
      {"op":"delete","name":NAME,"id":ID}     tombstone a point by id
      {"op":"flush","name":NAME}              compact tombstoned slots now
      {"op":"ping"}                           liveness
      {"op":"shutdown"}                       stop the server
    v}

    A read reply echoes [op], [name] and [k], then carries the family's
    fields around two flags: [cached] is [true] when the reply came from
    the result cache, and [coalesced] is always [false]. No read is
    coalesced; the flag stays so that v1 replies keep their shape.

    [insert]/[delete]/[flush] take one of two paths (see
    {!Registry.update}). An update that cannot move the skyline — a
    dominated or duplicate insert, a rejected insert, a delete of an
    unknown id or of a live non-skyline point that trips no compaction —
    is applied in place and answered at once by the IO thread. A repair
    — an insert or delete that moves the skyline, a delete that triggers
    compaction, a [flush] — runs on the registry's single worker thread,
    serialized with background builds; its reply comes once the update
    (and its incremental repair — see {!Kregret.Dynamic}) is published,
    and the connection's later requests wait behind it. A dataset's
    updates apply in arrival order: while a repair of it is pending, even
    a cheap update queues behind it on the worker. Queries never block
    on an in-flight update: they answer from the last published
    snapshot. Inserted points must be pre-normalized (finite coordinates
    in [(0, 1]], dimension matching the dataset) — anything else is a
    [bad_point] error. Updates against a dataset loaded with ["approx"]
    are rejected with [static_dataset]: the kernel reduction has no
    incremental repair.

    Every response carries ["ok"]; failures are structured —
    [{"ok":false,"error":{"code":CODE,"message":MSG}}], optionally with a
    top-level ["retry_after"] seconds hint (code [building]) — and {e never}
    terminate the server. Error codes: [parse_error], [bad_request],
    [missing_field], [bad_field], [unknown_op], [frame_too_large],
    [not_found], [building], [build_failed], [load_failed],
    [stale_dataset], [static_dataset], [bad_point], [empty_dataset],
    [internal], and [too_many_connections] (sent in place of the hello to
    a connection past the server's caps, which is then closed).
    [empty_dataset] answers a [rank_regret] read on a dataset
    whose every point was deleted: a rank needs at least one point to rank
    against ([query] and [mrr] answer such a dataset with the empty
    selection and mrr [0]).

    A [stats] reply is the server's live state plus its metrics:
    [{"ok":true,"op":"stats","proto":V,"uptime_seconds":S,"datasets":N,
    "connections":{"live":L},"cache":{"capacity":C,"entries":E},
    "metrics":DOC}]. [DOC] is the [kregret-obs/v1] document that
    [--metrics] writes at exit ({!Kregret_obs.Export.to_json}): counters,
    gauges, histograms and spans, zero counters left out. The server's
    counts are its counters there — [serve.requests] (this [stats]
    included), [serve.errors], [serve.connections],
    [serve.cache.hits]/[misses]/[evictions]/[insertions] and the rest of
    [serve.*] — beside
    the pipeline's work counters. They are per process, and move only
    while recording is on, as it always is in [kregret_serve]. *)

val version : string
(** ["kregret-serve/v1"]. *)

val default_max_line : int
(** Frame size limit in bytes (65536). Oversized frames are answered with
    [frame_too_large] and the connection is closed — past the limit the
    framing itself can no longer be trusted. *)

(** The read verbs: every one answers [{"op":OP,"name":NAME,"k":K}] from
    the dataset's published state, through one cache path. *)
type family = Query | Mrr | Rank_regret

(** Every family, in wire documentation order. *)
val families : family list

(** The family's [op] string: ["query"], ["mrr"], ["rank_regret"]. *)
val family_name : family -> string

(** [family_of_op op] — the family whose {!family_name} is [op]. *)
val family_of_op : string -> family option

type request =
  | Ping
  | List
  | Stats
  | Shutdown
  | Load of { name : string; path : string; approx : float option }
  | Read of { family : family; name : string; k : int }
  | Evict of { name : string option }
  | Insert of { name : string; point : float array }
  | Delete of { name : string; id : int }
  | Flush of { name : string }

type error = { code : string; message : string }

val err : code:string -> string -> error

(** [parse_request ?max_line line] — total; every malformed frame maps to a
    structured [error]. *)
val parse_request : ?max_line:int -> string -> (request, error) result

(** {1 Response frames} (single lines, no trailing newline) *)

val hello : string

(** [ok_response fields] — [{"ok":true, ...fields}]. *)
val ok_response : (string * Json.t) list -> string

val error_response : ?retry_after:float -> error -> string

(** {1 Framed line I/O over file descriptors}

    The client's side of the framing. The server's poller frames the
    lines it reads itself, chunk by chunk, without a reader. *)

type reader

val reader : Unix.file_descr -> reader

(** [read_line r ~max] — next ['\n']-terminated line (terminator and a
    preceding ['\r'] stripped). [`Eof] on clean end-of-stream at a frame
    boundary; [`Error] on a mid-frame disconnect or socket error; [`Too_long]
    once the accumulated frame exceeds [max] bytes, once per frame: the
    rest of that frame is dropped, and the next call returns the frame
    after it. Never raises. *)
val read_line :
  reader -> max:int -> [ `Line of string | `Eof | `Too_long | `Error of string ]

(** [write_line fd s] writes [s ^ "\n"] fully. Never raises. *)
val write_line : Unix.file_descr -> string -> (unit, string) result
