(** The published read state of a ready dataset: one value, whatever built
    it.

    Two producers fill it. {!Dynamic.snapshot} publishes the incremental
    state after the initial build and after every update that moved its
    versions; the serving tier publishes an ε-kernel build's
    [Kregret_approx.Pipeline.run] result statically (epoch [0] forever).
    Both turn their StoredList into [order] and [mrr] with {!prefix}, so
    a k-regret answer is the same prefix read on every tier. Sibling query families
    read the {!basis}: rank-regret runs over its rows with its candidates
    as the candidate set.

    {b What a publication shares, and why it cannot move.} A publication
    costs O(1) in the number of rows: it copies nothing. [order] and [mrr]
    are built once per epoch and never written. {!Dynamic.snapshot} does
    not copy the live rows either; its [basis] closure reads the
    producer's slot store (rows, ids, per-slot death versions) and
    skyline array in place. That is safe because the producer never
    writes a slot below the publication's high-water mark again, except
    to record a delete's death version, which is always greater than the
    [basis_version] of every earlier publication. A publication sees slot
    [p] iff [p] is below its mark and [p] died after its version, so what
    it sees is fixed when it is made, whatever the producer does next
    (inserts, deletes, compaction, growth). Readers on any thread need no
    lock. The price is retention: a store that compaction or growth
    replaced stays alive until its last publication is dropped. *)

(** The rank-regret input of a publication. *)
type basis = {
  ids : int array;  (** external ids of the live rows, ascending *)
  rows : Kregret_geom.Vector.t array;  (** the live rows, same order *)
  candidates : int array;
      (** the rank-regret candidates, as ascending indices into [rows].
          Exact builds: the skyline of [rows], the rank-complete
          candidate set (the happy funnel is not). ε builds: the
          skyline of the ε-kernel, which can be much smaller
          (10 rows against a 34-row basis skyline on a 2,000-row d = 3
          independent file at ε = 0.2), so an ε load's rank-regret answer
          is not rank-complete, though its certificates still rank
          against every row of [rows] *)
}

type t = {
  epoch : int;
      (** answer version: bumps when an update changes the skyline; [0]
          for static builds *)
  live : int;  (** live rows *)
  n_sky : int;  (** skyline size *)
  n_happy : int option;
      (** happy-point count; [None] while the happy screen of a lazily
          built exact dataset is incomplete ({!Dynamic} certifies only the
          points GeoGreedy takes, and completes the screen on its first
          skyline-moving update) *)
  order : int array;  (** the StoredList order, as external ids *)
  mrr : float array;
      (** [mrr.(i)] is the maximum regret ratio of the [(i + 1)]-prefix of
          [order] *)
  basis_version : int;
      (** bumps on every change to the live rows — each insert and each
          applied delete, even those that leave [epoch] alone — so it
          versions what rank-regret reads; [0] for static builds *)
  basis : unit -> basis;
      (** the publication's basis. A solo publication copies its [live]
          rows out of the shared slot store on each call (counted as
          [snapshot.basis_rows]); a static one hands over the basis its
          build made. The serving tier calls it once per publication, with
          the rank table it feeds; [query] and [mrr] never need it. *)
}

(** [prefix stored ~ids] is [(order, mrr)] for a StoredList over some
    candidate array, where [ids.(i)] is the external id of candidate [i].
    [None] (the happy screen kept nothing) gives empty arrays. *)
val prefix : Stored_list.t option -> ids:int array -> int array * float array

(** [query s ~k] is the first [min k (Array.length s.order)] ids of
    [order] and that prefix's maximum regret ratio; [([], 0.)] when
    nothing is materialized. Raises [Invalid_argument] when [k < 1]. *)
val query : t -> k:int -> int list * float
