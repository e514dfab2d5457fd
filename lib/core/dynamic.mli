(** Incremental maintenance of the k-regret pipeline under inserts and
    deletes (the paper's Section VII "dynamic datasets" future-work item).

    A [Dynamic.t] owns a slot store of points (deletes tombstone, a
    threshold-driven {!flush} compacts) and keeps the derived pipeline state
    — skyline, happy set, stored list — synchronized after every update,
    {e bit-identically} to rebuilding the whole pipeline from the live
    points. The oracle in [Kregret_check.Dynamic_oracle] enforces exactly
    that equivalence on fuzzed interleavings at several pool widths.

    Where the incrementality lives:

    - {b Skyline}: an insert dominated (or value-equaled) by a skyline
      member is an exact no-op — O(|sky| * d) and nothing downstream moves.
      An entering insert evicts only the members it dominates; a skyline
      delete re-screens only the points the deleted member excluded.
    - {b Happy set}: the build certifies only the points GeoGreedy takes
      (the lazy {!Stored_list.funnel}), so the other skyline members have
      no verdict yet. The first skyline-moving update, or {!happy_size},
      completes the screen in one batch pass that records every unhappy
      member's witness (one subjugator) and remaps the stored list onto
      happy indices, moving neither {!epoch} nor [basis_version]. From
      then on each skyline member carries a verdict with a witness: an
      update fully re-screens only the new/re-entered points and the
      members whose witness left the skyline; everyone else is decided by
      probing against the few changed points, each of whose vertex sets
      is enumerated once. An entering insert and a skyline delete run
      this one repair. Cheap updates never read a verdict.
    - {b Stored list}: two tiers. It is reused outright when the happy
      candidate array is bit-unchanged (full float bits are compared, never
      hashes), and otherwise re-derived by one {!Stored_list.preprocess}
      pass over the happy set.

    Why the stored list is re-derived rather than patched in place:
    GeoGreedy's champion cache is event-driven, and a champion value after
    an event-path update can differ by one ulp from the value a fresh full
    scan computes (the event path maximizes over replacement faces only).
    Replaying a prefix and continuing therefore does not reproduce the
    fresh run bit-for-bit on tie-heavy data; only a fresh preprocessing
    pass does. The repair-depth histogram records how much of the list an
    update actually invalidated (distance from the first divergent position
    to the end).

    {b The slot store is append-only.} A slot below the store's high-water
    mark is never written again in an array already handed out: inserts
    write at the mark, growth and {!flush} build new arrays, and the
    skyline array is replaced, never edited. A delete records the
    [basis_version] it bumped to in a per-slot death version instead of
    clearing a flag. {!snapshot} relies on this to share the store with
    every publication instead of copying it.

    Not thread-safe: one writer at a time. The serve layer keeps one
    writer per dataset — its IO thread applies {!apply_cheap} updates in
    place while no update of the dataset is queued or running on the
    registry worker, which applies every other update — and answers
    concurrent queries from {!Snapshot}s, which never change once
    published. All update paths are sequential, so results are identical
    for every [Kregret_parallel.Pool] width (the rebuild pipeline
    underneath is width-invariant by the repo-wide determinism
    contract). *)

type t

(** [create points] builds the initial state with {!Stored_list.funnel}
    (skyline -> prepared happy screen -> stored-list preprocessing that
    certifies only the points it takes). It keeps no prepared screen
    (about 10 MB of vertex sets at n = 10⁴, d = 6): the verdicts of the
    other skyline members stay unknown until the screen completes (see
    above). Points get external ids [0 .. n-1] in array order; later
    inserts continue the sequence. [max_length] is passed to every
    stored-list pass. Raises [Invalid_argument] on an empty array or
    inconsistent dimensions. *)
val create : ?max_length:int -> Kregret_geom.Vector.t array -> t

(** [insert t p] adds a point and returns its external id. Coordinates must
    be finite and in [(0, 1]] ([Invalid_argument] otherwise — dynamic data
    must arrive pre-normalized, there is no global rescale to invalidate).
    Duplicate and dominated points are accepted into the store but leave
    the skyline, happy set, stored list and {!epoch} untouched. *)
val insert : t -> Kregret_geom.Vector.t -> int

(** [delete t id] tombstones the point with external id [id]; [false] when
    the id is unknown or already deleted. Deleting a non-skyline point
    leaves every answer untouched; deleting a skyline member triggers the
    bounded repair described above. Auto-compacts (as {!flush}) once the
    store holds at least 64 slots and more than half of them are
    tombstones. *)
val delete : t -> int -> bool

(** What a cheap update did: {!insert}'s id, or {!delete}'s result. *)
type cheap = Inserted of int | Deleted of bool

(** [apply_cheap t op] applies [op] iff it cannot move the skyline, and
    returns what {!insert} or {!delete} would; otherwise [None], having
    touched nothing. The one classification of an update:

    - cheap: an insert that a skyline member dominates or equals (one
      O(|sky| * d) scan, shared with {!insert}); a delete of an unknown or
      dead id; a delete of a live non-skyline point whose tombstone does
      not trip the auto-compaction — O(1), plus the amortised growth of
      the slot store;
    - not cheap ([None]): an insert that enters the skyline, a skyline
      delete, a compaction-triggering delete and a flush.

    A cheap update leaves {!epoch} alone. Raises [Invalid_argument] where
    {!insert} would, having touched nothing. *)
val apply_cheap :
  t -> [ `Insert of Kregret_geom.Vector.t | `Delete of int | `Flush ] -> cheap option

(** [flush t] compacts tombstoned slots immediately and returns how many
    were reclaimed. External ids, answers and {!epoch} are unaffected. *)
val flush : t -> int

(** [query t ~k] is the k-regret answer over the live points: external ids
    of the stored list's first [k] entries and the prefix's maximum regret
    ratio. [([], 0.)] when no live points remain. *)
val query : t -> k:int -> int list * float

(** [mrr_at t ~k] is just the regret of the [k]-prefix. *)
val mrr_at : t -> k:int -> float

val live : t -> int

(** [slots t] is the store size including tombstones. *)
val slots : t -> int

val tombstones : t -> int
val sky_size : t -> int

(** [happy_size t] is the number of happy skyline members. It completes
    the happy screen first if the build left it incomplete (answers and
    versions stay put). *)
val happy_size : t -> int

val stored_length : t -> int

(** [epoch t] is the answer version: it bumps exactly when the skyline (and
    possibly the stored list) changes, and stays put across no-op inserts,
    non-skyline deletes and compactions — so it keys result caches with no
    false invalidations. *)
val epoch : t -> int

(** [snapshot t] is the read state the serve layer publishes after the
    build and after each update that moved its [epoch] or [basis_version]:
    the stored order and its prefix regrets as external ids, and a basis
    closure over the live rows with the maintained skyline as
    [candidates] (equal to [Skyline.sfs] over the basis, so rank-regret
    needs no skyline pass of its own).

    O(1) in the number of rows: it copies nothing, and while the epoch
    stays put it hands out the previous snapshot's [order] and [mrr]. The
    basis closure shares the append-only slot store and copies the live
    rows only when called, O(live) per call. No later update, flush or
    growth changes what an earlier snapshot answers. *)
val snapshot : t -> Snapshot.t
