(** The linear programs of the k-regret literature.

    These are the formulations the baseline [Greedy] algorithm of Nanongkai
    et al. (VLDB 2010) solves once per candidate per iteration — the cost the
    paper's GeoGreedy removes. They double as an independent oracle against
    which the geometric implementations are property-tested.

    All points are non-negative vectors of a common dimension [d]. *)

(** [critical_ratio ~selected q] is the paper's [cr(q, S)] (Definition 3),
    computed as the LP

    {v min t  s.t.  w . q = 1,  w . p <= t (p in selected),  w, t >= 0 v}

    By Lemma 1 (in its dual reading), the optimum equals
    [||q'|| / ||q||] where [q'] is the q-critical point for [selected].
    Returns the ratio together with a witness weight vector (the maximum
    regret direction for [q], scaled so [w . q = 1]).

    Raises [Invalid_argument] when [selected] is empty or dimensions
    disagree. *)
val critical_ratio :
  selected:Kregret_geom.Vector.t list -> Kregret_geom.Vector.t ->
  float * Kregret_geom.Vector.t

(** [regret_ratio ~selected q] is [max 0 (1 - critical_ratio ~selected q)]:
    how much of its best utility a user loses on point [q] when shown only
    [selected]. *)
val regret_ratio :
  selected:Kregret_geom.Vector.t list -> Kregret_geom.Vector.t -> float

(** [max_regret_ratio ~data ~selected] is [mrr(selected)] over the linear
    function class, i.e. [max_{q in data} regret_ratio q] — Lemma 1 computed
    entirely by LP. *)
val max_regret_ratio :
  data:Kregret_geom.Vector.t list ->
  selected:Kregret_geom.Vector.t list ->
  unit ->
  float

(** [worst_candidate ~data ~selected] is the point of [data] with the
    smallest critical ratio for [selected] (the point "contributing to the
    maximum regret ratio", line 6 of Algorithm 1), with that ratio.
    Returns [None] when [data] is empty. *)
val worst_candidate :
  data:Kregret_geom.Vector.t list ->
  selected:Kregret_geom.Vector.t list ->
  unit ->
  (Kregret_geom.Vector.t * float) option

(** [in_convex_position ~others p] tests whether [p] is an extreme point of
    the downward-closed hull of [p :: others] — i.e. whether [p] would belong
    to the paper's [D_conv]. Decided by the LP

    {v max delta  s.t.  w . (p - q) >= delta (q in others),
                        sum w = 1,  w >= 0,  delta free v}

    with [p] extreme iff the optimum exceeds [1e-7]. A duplicate of [p] in
    [others] therefore makes the answer [false]. *)
val in_convex_position :
  others:Kregret_geom.Vector.t list -> Kregret_geom.Vector.t -> bool

(** [separating_direction ~others p] is the decision version of
    {!in_convex_position} that also returns the witness: a non-negative
    direction [w] (normalized to [sum w = 1]) with [w . p > w . q] for every
    [q] in [others], or [None] when no such direction exists ([p] lies in
    the downward closure of [others]). The witness drives Clarkson's
    algorithm in {!Kregret_hull.Extreme}. *)
val separating_direction :
  others:Kregret_geom.Vector.t list -> Kregret_geom.Vector.t ->
  Kregret_geom.Vector.t option
