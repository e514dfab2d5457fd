(** Skyline (maxima) computation — the paper's preprocessing substrate.

    Every k-regret algorithm in the paper runs on a candidate set that is
    either [D_sky] (prior work) or [D_happy] (the paper's contribution,
    itself a subset of the skyline). Implementations:

    - [sfs]: sort-filter-skyline (Chomicki et al.) — the production
      skyline, called by every build path ([of_dataset],
      [Stored_list.funnel] — which [Dynamic] and the ε-kernel
      [Pipeline] build with — and [Rrr.build]);
    - [naive]: quadratic all-pairs reference that tests and oracles
      compare [sfs] against;
    - [bnl]: block-nested-loops (Börzsönyi et al., ICDE 2001).

    The progressive branch-and-bound skyline over an R-tree (Papadias et
    al., TODS 2005 — the paper's reference [10]) is {!Bbs}, a separate
    module that the substrate bench runs; [of_dataset] does not offer it.

    All functions return ascending indices into the input array. [naive],
    [bnl] and [sfs] keep index [i] iff no point dominates it and no point
    with a lower index equals it: a duplicated maximal point is kept once,
    at its first occurrence by input order. [sfs] returns exactly [naive]'s
    array, at every pool width, for finite coordinates. *)

(** [naive points] — O(n^2 d) all-pairs reference. *)
val naive : Kregret_geom.Vector.t array -> int array

(** [bnl points] — block-nested-loops with an in-memory window. *)
val bnl : Kregret_geom.Vector.t array -> int array

(** [sfs points] — sort-filter-skyline. The ids are sorted once by
    (coordinate sum descending, coordinates lexicographically descending,
    id ascending), so every dominator and every lower-id equal point comes
    before the point it eliminates, even when rounding ties their sums.
    The rows are then walked in that order, in fixed-size blocks filtered
    on the domain pool against a flat window of earlier survivors. The
    [skyline.*] counters are counted per row, so their totals are the same
    at every pool width. Raises [Invalid_argument] on rows of different
    lengths. *)
val sfs : Kregret_geom.Vector.t array -> int array

(** [of_dataset ds] is the [sfs] skyline of [ds] as a dataset named
    ["<name>/sky"]. *)
val of_dataset : Kregret_dataset.Dataset.t -> Kregret_dataset.Dataset.t
