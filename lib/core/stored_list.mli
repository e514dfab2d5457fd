(** The StoredList algorithm (Section IV-B of the paper).

    A materialization of {!Geo_greedy}: the preprocessing phase runs
    GeoGreedy on the happy points with [k = |D_happy|], recording the
    insertion order in a list [L] (and, in this implementation, the maximum
    regret ratio after each prefix). The query phase answers a k-regret
    query by returning the first [k] entries of [L] — constant work per
    returned tuple, which is why the paper measures it in microseconds where
    Greedy takes hours.

    The answer for any [k] is exactly GeoGreedy's answer for that [k]
    (greedy insertion order does not depend on the target size — the prefix
    property), which the test suite verifies. *)

type t

(** [preprocess points] runs the full GeoGreedy pass and materializes the
    list. This is the expensive phase the paper charges to "total time".
    [max_length] truncates the materialization (the paper runs to
    [k = |D_happy|]; a deployment that knows its largest query [k] can stop
    there — queries beyond the materialized length return the whole list).

    [admit] restricts the list to the points it accepts, asked at most
    once per point (see {!Geo_greedy.run}). The list's entries still index
    [points], and its prefix regrets are taken over the accepted points:
    prefixes shorter than the boundary seeding take the minimum critical
    ratio over accepted points, certifying points in ascending
    critical-ratio order until one is accepted. Order and every mrr bit
    are those of [preprocess] over the accepted points alone. The list is
    empty ([length] 0) when [admit] refuses every point. *)
val preprocess :
  ?max_length:int -> ?admit:(int -> bool) -> Kregret_geom.Vector.t array -> t

(** The offline phase end to end: skyline, happy points, StoredList.
    [sky] is the ascending indices of the skyline rows; [stored] runs over
    them, so its entries index [sky]. [stored] is [None] when the happy
    screen keeps nothing. *)
type funnel = { sky : int array; stored : t option }

(** [funnel points] runs [Skyline.sfs], prepares the happy screen
    ([Happy.prepare]) over the skyline rows, then {!preprocess} over them
    with the screen's verdict as [admit]. By the paper's Lemmas 1 and 3
    the regret of any selection is attained on [D_conv ⊆ D_happy], so
    GeoGreedy's picks over the skyline are happy points (an unhappy point
    that ties one is refused and the pick retaken), and only the points
    it reaches get a verdict: on anti-correlated n = 10⁴, d = 6 data that is
    tens of verdicts against the 4,000 of a full screen. The list, mapped
    to input rows, is bit for bit the eager composition's ([Happy.happy_points]
    on the skyline rows, then {!preprocess} on the happy rows); the
    [lazy-funnel] oracle check pins this. The happy set itself stays
    unknown. It is the one production composition of the three stages:
    the initial {!Dynamic} build and the ε-kernel pipeline both call it.
    [max_length] is passed to {!preprocess}. *)
val funnel : ?max_length:int -> Kregret_geom.Vector.t array -> funnel

(** [reindex t f] is [t] with every entry [e] replaced by [f e]: the same
    list over a candidate array that holds entry [e]'s point at [f e]. *)
val reindex : t -> (int -> int) -> t

(** [query t ~k] returns the first [k] list entries (all of them when the
    list closed early with [mrr = 0] before reaching [k] — then the answer's
    regret is 0 anyway). O(k). *)
val query : t -> k:int -> int list

(** [mrr_at t ~k] is the maximum regret ratio of [query t ~k] over the
    candidate array, read off the materialized prefix table. *)
val mrr_at : t -> k:int -> float

(** [length t] is [|L|]. *)
val length : t -> int

(** [order t] is the full materialized list. *)
val order : t -> int list

(** [save t ~points path] persists the materialized list (text format, one
    [index mrr] line per entry) together with a fingerprint of the candidate
    array, so a later {!load} can detect that it is being replayed against
    different data. *)
val save : t -> points:Kregret_geom.Vector.t array -> string -> unit

(** [load ~points path] restores a materialized list saved with {!save}.
    Raises [Failure] with a message naming the file (and the line, for body
    errors) when the file is not a stored list, uses an unsupported format
    version, was built for a different candidate count, carries a
    fingerprint that does not hash-match [points] (the list would silently
    index the wrong tuples), or contains a truncated / malformed /
    out-of-range / NaN entry. *)
val load : points:Kregret_geom.Vector.t array -> string -> t
