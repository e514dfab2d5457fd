(** Scatter-gather shard tier: partition a dataset, reduce each shard to
    its scatter surface ({!gather}), and run the offline funnel once, on
    the gathered rows, in a coordinator ({!create}) whose published
    {!Kregret.Snapshot.t} answers {e bit-identically} to the monolithic
    pipeline over the whole dataset.

    The partition is contiguous by row index, so concatenating the shards
    in order reproduces the original row order. Per-shard work is the
    scatter surface only: the shard's local skyline (its ε-kernel in
    approx mode, below). The coordinator concatenates the local skylines
    and runs {!Kregret.Stored_list.funnel} ([Skyline.sfs →
    Happy.happy_points → Stored_list.preprocess]) on that union.

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
    Every family reads the one published snapshot: the basis is the whole
    input and the candidates are the merged skyline, so rank-regret sees
    exactly the monolithic inputs too. (With [?approx] the candidates are
    the skyline of the merged ε-kernel instead, see {!create}.)

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


val gather :
  ?approx:float -> shards:int -> Kregret_geom.Vector.t array -> int array
(** [gather ~shards points] — the coordinator's input, as ascending row
    ids: the concatenated local skylines, or with [approx] the merged
    ε-kernel (equal to [Kregret_approx.Kernel.reduce]'s ids over the whole
    input). [shards] is clamped to [1 .. n]. Raises [Invalid_argument] on
    an empty dataset. *)

val create :
  ?max_length:int ->
  ?approx:float ->
  shards:int ->
  Kregret_geom.Vector.t array ->
  Kregret.Snapshot.t
(** [create ~shards points] runs the funnel over the {!gather}ed rows and
    publishes the result: epoch [0], and a basis built here and handed
    over as is by every call of the snapshot's [basis]: every input row,
    uncopied (ids = row indices), and the skyline of the gathered rows as
    [candidates]:
    the merged skyline, equal to the skyline of the whole input; with
    [approx], the skyline of the merged ε-kernel, which is not
    rank-complete for the basis. [max_length] caps
    the coordinator's StoredList exactly as {!Kregret.Dynamic.create}
    would. Runs on the calling thread (shards build sequentially — the
    parallelism lives inside each stage's pool use, so answers are
    independent of the pool width). *)
