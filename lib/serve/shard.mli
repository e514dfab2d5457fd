(** Scatter-gather shard tier: partition a dataset, run the offline
    pipeline (skyline → happy → StoredList) per shard, and merge the shard
    results into a coordinator whose answers are {e bit-identical} to the
    monolithic pipeline over the whole dataset.

    The partition is contiguous by row index, so concatenating the shards
    in order reproduces the original row order. Each shard computes its
    local skyline (and, for its own serving surface, local happy points and
    a local StoredList). The coordinator then concatenates the
    {e local skylines} — not the happy sets — and re-runs
    [Skyline.sfs → Happy.happy_points → Stored_list.preprocess] on that
    union.

    Why this is exact (the oracle in [lib/check] asserts it): [sfs] keeps
    row [i] iff no row dominates it and no {e earlier} row equals it.
    - A row cut from its local skyline is cut globally by the same witness.
    - A row kept locally but cut globally has its witness in another chunk;
      if that witness was itself cut locally, its dominator (transitively,
      a local-skyline member, since dominance chains are finite and an
      equal-earlier witness only moves the chain to a smaller index)
      survives into the concatenation and still cuts the row.
    - Duplicated maximal values keep exactly their first occurrence: the
      first occurrence has no earlier equal in its own chunk and survives
      locally, and contiguity keeps it earliest in the concatenation.
    So [sfs (concat local skylines) = sfs (all rows)] row-for-row, and
    the happy screen and GeoGreedy materialization then run on identical
    arrays — equality is inherited bit-for-bit, at every pool width.

    {b Approximation.} With [?approx] set to an ε, the scatter surface
    becomes each chunk's ε-kernel ({!Kregret_approx.Kernel}) instead of
    its skyline, and the coordinator {e rescans} the concatenated local
    kernels with the same net before the happy screen. The rescan makes
    the merge exact in the approximate world: per net direction, the
    global winner (the smallest-id maximizer) also wins its own shard's
    scan, so it survives into the union, and a first-wins scan over the
    ascending-id union elects it again — the merged kernel equals the
    whole-dataset kernel row for row, so the downstream pipeline (and
    therefore every answer) is bit-identical to
    {!Kregret_approx.Pipeline.run} at every shard count and pool width.

    Sharded datasets are static: there is no incremental repair across the
    merge (the server answers updates on them with [static_dataset]). *)

type t

val create :
  ?eps:float ->
  ?max_length:int ->
  ?approx:float ->
  shards:int ->
  Kregret_geom.Vector.t array ->
  t
(** Build the shard tier over normalized rows. [shards] is clamped to
    [1 .. n]; [eps]/[max_length] are threaded to every local pipeline and
    to the coordinator exactly as {!Kregret.Dynamic.create} would thread
    them. [approx] switches the scatter surface to per-chunk ε-kernels
    (see above). Runs on the calling thread (shards build sequentially —
    the parallelism lives inside each pipeline stage's pool use, so
    answers are independent of the pool width). *)

val shards : t -> int
(** The actual shard count after clamping. *)

val n : t -> int
(** Total rows. *)

val n_sky : t -> int
(** Size of the merged (= monolithic) skyline. *)

val n_happy : t -> int
(** Size of the merged happy set. *)

val stored_length : t -> int
(** Materialized coordinator list length. *)

val approx : t -> float
(** The ε this tier was built with; [0.] for the exact tier. *)

val kernel_size : t -> int
(** Rows in the merged (= whole-dataset) ε-kernel; [0] for the exact
    tier. *)

val query : t -> k:int -> int list * float
(** First [k] coordinator entries as original row ids, with the prefix's
    maximum regret ratio — same contract as
    {!Kregret.Dynamic.Snapshot.query}. *)

val mrr_at : t -> k:int -> float

val happy_ids : t -> int array
(** The merged happy set as original row ids — bit-identical to the
    monolithic happy set in exact mode (the merge argument above), the
    kernel-restricted happy set in approx mode. *)

val rank_regret : t -> k:int -> int list * Kregret_rrr.Rrr.rank
(** Rank-regret representative query over the sharded tier: a greedy
    [<= k]-subset of the merged skyline (the rank-complete candidate
    class — {!Kregret_rrr.Rrr.build}) minimizing the certified max rank
    over the {e full} dataset (the tier retains its input rows), and
    that prefix's certified rank. Candidates and universe equal the
    monolithic engine's, so answers are bit-identical to
    {!Kregret_rrr.Rrr.build} + [query] at every shard count. *)

val local_sizes : t -> (int * int * int) array
(** Per shard, [(rows, local skyline size, local happy size)] — the
    scatter phase's shape, for [stats]/[list] reporting. *)

val local_query : t -> shard:int -> k:int -> int list
(** First [k] entries of one shard's {e local} StoredList, as original row
    ids. The local answers are what a distributed deployment would serve
    from the shard replicas; they are {e not} in general a superset of the
    coordinator's answer, which is why the merge consumes skylines, not
    top-k lists. *)
