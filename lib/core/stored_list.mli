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
    there — queries beyond the materialized length return the whole list). *)
val preprocess : ?max_length:int -> Kregret_geom.Vector.t array -> t

(** The offline phase end to end: skyline, happy points, StoredList.
    [sky] and [happy] are ascending indices into the input rows
    ([happy] a subset of [sky]); [stored] runs over the happy rows, so
    its entries index [happy]. [stored] is [None] when the happy screen
    keeps nothing. *)
type funnel = { sky : int array; happy : int array; stored : t option }

(** [funnel points] runs [Skyline.sfs], then [Happy.happy_points] on the
    skyline rows, then {!preprocess} on the happy rows. It is the one
    production composition of the three stages: the initial
    {!Dynamic} build and the ε-kernel pipeline both call it. [max_length] is passed to
    {!preprocess}. *)
val funnel : ?max_length:int -> Kregret_geom.Vector.t array -> funnel

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
