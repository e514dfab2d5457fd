(** Dataset registry: load CSV datasets once, precompute skyline → happy
    points → StoredList in the background, publish the result as one
    {!Kregret.Snapshot.t}, serve any [k] afterwards as an O(k) prefix read
    — and accept incremental [insert]/[delete]/[flush] updates that repair
    the precomputation instead of rebuilding it.

    Every ready dataset publishes the same snapshot type, whatever built
    it: an exact load keeps a {!Kregret.Dynamic} state, and an ε load
    publishes a static snapshot of {!Kregret_approx.Pipeline.run}. One
    rule decides
    when an update republishes: iff it moved the epoch or the
    [basis_version] since the published snapshot, the thread that applied
    it publishes a new {!Kregret.Dynamic.snapshot} (O(1) in the rows: it
    shares the slot store), and marks the dataset {!info.mutated}.
    Anything else — an insert rejected as [bad_point], a delete of an
    unknown id, a flush — keeps the publication, and with it its rank
    table.

    [load] is cheap and non-blocking: it reads the file {e once},
    fingerprints exactly the bytes it parsed ({!Fingerprint.of_string} —
    hashing and re-reading separately raced concurrent rewrites), parses
    and normalizes the CSV on the calling thread, registers the entry as
    [Building] and hands the expensive GeoGreedy materialization to a
    single background worker thread (which uses the global
    {!Kregret_parallel.Pool} internally; a [rank_regret] read runs its
    own pool regions on the caller's thread, and the pool runs regions
    from different threads one after another). Concurrent [load]s of the
    same unchanged file are idempotent: they join the in-flight build
    instead of enqueuing a duplicate. Re-[load]ing a name whose build
    [Failed] on unchanged bytes re-enqueues the build (failures can be
    transient), counted as [serve.registry.build_retries]. Queries
    against a still-[Building] entry get a [retry_after] answer from the
    server, never a blocked accept loop.

    {b Updates.} {!update} takes one of two paths, chosen by
    {!Kregret.Dynamic.apply_cheap}, the one classification of an update.
    An update that cannot move the skyline — a dominated or duplicate
    insert, a rejected ([bad_point]) insert, a delete of an unknown id or
    of a live non-skyline point whose tombstone trips no compaction — is
    applied in place on the caller's thread (in the server, the IO
    thread) and answered at once, counted as
    [serve.registry.inline_updates]. Every other update (a skyline-moving
    insert or delete, a compaction-triggering delete, a flush) goes on
    the {e same} worker queue as builds, so repairs serialize against
    builds and against each other, counted as [serve.registry.updates];
    the worker calls the update's completion once it has applied the op.
    One writer per dataset: each entry counts its updates queued on, or
    running on, the worker, and an update is applied in place only while
    that count is 0 — otherwise it queues behind them, so each dataset's
    updates apply in arrival order. Both paths publish through one
    function, under one rule: a new {!built} snapshot iff the op moved
    the epoch or the [basis_version]. Queries never wait on an update —
    they read the last published snapshot under the registry mutex.
    [rank_regret] reads build one basis and one rank table per
    publication, on first use ({!rank_regret}), never at load or update
    time. Each applied update bumps the snapshot's epoch when the stored
    list could have changed, and its [basis_version] whenever the live
    rows changed; servers fold the one a family reads into their cache
    key so stale cached answers simply age out.

    {b Staleness.} Every entry remembers the byte fingerprint of the file
    it was built from. {!fresh} re-hashes the file and must be consulted
    before serving: a dataset whose CSV was rewritten on disk between
    [load] and [query] is {e rejected} ([stale_dataset]) instead of being
    silently answered from the stale materialization. Once a dataset has
    been mutated through {!update}, the CSV is a seed rather than the
    source of truth, and {!fresh} always passes. Re-[load]ing the same
    name picks up the new file contents and rebuilds (dropping any
    updates): a mutated entry is never joined, even when the file is
    unchanged — the re-load takes a fresh {!info.generation}. *)

(** The answer state behind a [Ready] dataset; it never changes once
    published. Its epoch is always 0 for ε builds — they never change, so
    nothing a cache keyed on it could miss. *)
type backend = Kregret.Snapshot.t

(** The basis and rank table cell of one publication (see
    {!rank_regret}). *)
type rank_cell

(** One publication: made only by {!built_of}, so each owns a fresh rank
    cell. *)
type built = private {
  backend : backend;
  build_seconds : float;  (** initial build cost (not update repair time) *)
  rank_cell : rank_cell;
}

(** [built_of ~build_seconds b] publishes [b] with an empty rank cell. The
    registry publishes through it after every build and every update that
    moved the versions; no basis or table is built here. *)
val built_of : build_seconds:float -> backend -> built

(** [backend_query b ~k] is {!Kregret.Snapshot.query}: the first [k]
    entries of the stored order and that prefix's regret. *)
val backend_query : backend -> k:int -> int list * float

(** [rank_regret b ~k] — the rank-regret representative answer of the
    publication: {!Kregret_rrr.Rrr.select} [~max_size:k] over the
    publication's rank table, selections mapped through the basis [ids].
    The first [rank_regret] read of this publication calls the snapshot's
    [basis] and builds {!Kregret_rrr.Rrr.table} over its rows with its
    [candidates] as the candidate set, both under the cell's lock, and
    keeps the two for every later [k] (a read arriving during that build
    waits for it, so [basis] runs once per publication and never on two
    threads at once). An update that republishes, a re-load or an evict
    replaces or drops the publication, and its basis and table with it.
    Exact answers track every update; a fresh exact dataset reproduces
    the offline engine over the normalized rows bit for bit. For ε loads
    [candidates] is the skyline of the ε-kernel, not of the basis, so the
    answer is not rank-complete, though its certificates still rank
    against every row. Raises [Invalid_argument]
    when no live points remain. *)
val rank_regret : built -> k:int -> int list * Kregret_rrr.Rrr.rank

type status = Building | Ready of built | Failed of string

type info = {
  name : string;
  generation : int;
      (** this registration's id: a [load] that creates or replaces the
          entry takes a fresh one, never reused, so answers cached under
          it belong to this registration alone *)
  path : string;
  fingerprint : string;
  stat : Fingerprint.stat_sig;
      (** taken by [fstat] on the descriptor the fingerprinted bytes were
          read from — the cheap per-query freshness witness *)
  n : int;  (** rows loaded from the CSV (not updated by inserts/deletes) *)
  d : int;
  approx : float;
      (** ε of the ε-kernel tier; [0.] = exact. Approximate datasets are
          static. *)
  mutated : bool;  (** diverged from the CSV via {!update} *)
  status : status;
}

type update_op = [ `Insert of Kregret_geom.Vector.t | `Delete of int | `Flush ]

type update_outcome = {
  applied : bool;
      (** [false] for exact no-ops: deleting an unknown/tombstoned id, or a
          flush with nothing to reclaim *)
  inserted_id : int option;  (** the new point's stable id, inserts only *)
  reclaimed : int;  (** slots compacted away, flushes only *)
  epoch : int;  (** answer version after the op *)
  live : int;  (** live points after the op *)
}

(** [Error (code, message)] uses the wire error codes: [not_found],
    [building], [build_failed], [static_dataset], [bad_point],
    [internal]. *)
type update_reply = (update_outcome, string * string) result

type t

(** [create ?max_length ()] starts the build/update worker. [max_length]
    caps the StoredList materialization (the [--max-k] serving knob — see
    {!Kregret.Stored_list.preprocess}); queries beyond the cap return the
    whole materialized list. *)
val create : ?max_length:int -> unit -> t

(** [stop t] stops taking work, without blocking: later loads and updates
    are refused, queued builds are dropped, and each queued update's
    completion is called at once with [Error ("internal", "registry is
    shut down")], so no caller is left hanging. An in-flight build or
    update finishes. Idempotent. *)
val stop : t -> unit

(** [shutdown t] — {!stop}, then joins the worker (waits for an in-flight
    build or update). Idempotent. *)
val shutdown : t -> unit

(** [load t ~name ~path] registers (or re-registers, when the
    fingerprint or ε changed) a dataset and enqueues its build; returns a
    snapshot. An exact load builds a {!Kregret.Dynamic}. [approx > 0.]
    builds the static ε-kernel tier instead: {!Kregret_approx.Pipeline.run}
    at that ε, published with epoch [0], every input row as the rank
    basis and the kernel's skyline as the rank candidates; it takes no
    updates. Exact and approximate materializations of the same bytes
    are {e distinct} entries: ε is part of the entry's identity, so
    re-loading an unchanged file at the same ε joins the existing entry
    (except when its build [Failed], which retries), and a different ε
    rebuilds. [Error] on unreadable or malformed CSV, and on data of more
    than {!Kregret_hull.Dd.max_dim} dimensions, which no build supports. *)
val load :
  ?approx:float ->
  t ->
  name:string ->
  path:string ->
  (info, string) result

(** [update t ~name op complete] — insert/delete/flush against a [Ready]
    exact dataset, without waiting for a repair. [`Now r] answered it on
    the calling thread: a refusal ([not_found], [building],
    [build_failed], [static_dataset] — approximate datasets are static —
    or [internal] after {!stop}), or an update applied in
    place (see Updates above), published before [update] returns;
    [complete] is then never called. [`Queued] handed it to the worker,
    which calls [complete] exactly once, on its own thread (or the one
    calling {!stop}) with no registry lock held, after the repair is
    published. A queued update applies only to the registration it was
    queued for: when an evict or a re-load took the name meanwhile,
    [complete] gets that name's refusal ([not_found] while any
    registration of it is ready). Points must be pre-normalized (finite, in [(0, 1]],
    matching dimension): anything else is answered with
    [Error ("bad_point", _)]. Takes the registry mutex, and runs an
    in-place update under it: O(|sky| * d) for an insert, O(1) for a
    delete. *)
val update :
  t ->
  name:string ->
  update_op ->
  (update_reply -> unit) ->
  [ `Now of update_reply | `Queued ]

val find : t -> string -> info option

(** Name-sorted snapshots. *)
val list : t -> info list

(** [evict t name] — forget a dataset, returning the evicted entry's
    generation ([None] when absent). Removal and generation read happen
    under one critical section, so a cache purge keyed on the result
    targets exactly the entry that was removed — reading it with a
    separate {!find} first raced a concurrent re-load of the same name. *)
val evict : t -> string -> int option

(** [unchanged info] — {!fresh} decided without reading the file: the
    dataset is mutated, or a [stat] of [info.path] matches [info.stat].
    [false] says only that {!fresh} would have to re-hash. *)
val unchanged : info -> bool

(** [fresh t info] — fail when [info.path] no longer holds the loaded
    bytes (counted as [serve.stale_rejections]). The common case is O(1):
    a [stat] matching [info.stat] proves the file untouched; only a
    changed signature pays for a full re-read and re-hash (so a [touch]
    without a rewrite stays fresh, and per-query latency does not scale
    with the file). Always [Ok] once [info.mutated]. *)
val fresh : t -> info -> (unit, string) result

(** [ready t name] — the dataset's snapshot and published build, when it
    can answer a read now: it is loaded, built, and {!fresh}. Otherwise
    the wire error [(code, message)]: [not_found], [building],
    [build_failed] or [stale_dataset]. {!update} refuses with the same
    [not_found]/[building]/[build_failed] messages. *)
val ready : t -> string -> (info * built, string * string) result
