(** Happy points (Definition 4 and Lemmas 2–5 of the paper).

    A point [p] is {e subjugated} by [q] when [p] lies on or below every
    hyperplane of [Y(q)] — the hyperplanes carrying the faces of
    [Conv({q} ∪ VC)] that do not pass through the origin (VC = the unit
    basis "virtual corner" points) — and strictly below at least one of
    them. Happy points are the points subjugated by nobody; by Lemma 2 they
    are a complete candidate set for the k-regret query, and by Lemma 3
    [D_conv ⊆ D_happy ⊆ D_sky].

    Implementation (DESIGN.md §2): [P_q = Conv({q} ∪ VC)] dualizes to
    [Q_q = [0,1]^d ∩ { w . q <= 1 }] — a unit box cut by a single
    halfspace, whose vertices are enumerable in closed form. Then

    - "on or below every hyperplane of Y(q)" iff [p ∈ P_q] iff
      [w . p <= 1] for every vertex [w] of [Q_q];
    - "below at least one" iff [p] is not on the common intersection of the
      [Y(q)] hyperplanes, which is the simplex face [{sum x = 1}] when
      [sum q <= 1] and the single point [{q}] when [sum q > 1] (every
      non-origin facet of [P_q] then passes through the vertex [q], and
      [q]'s strictly positive coordinates rule coordinate planes out).

    Every one of these tests allows a fixed slop [eps = 1e-9].

    The pairwise scan is the paper's [O(n^2 d 2^d)] algorithm (Section
    III-B); pass skyline points only — subjugation by a dominated point is
    always witnessed by its dominator, so filtering to [D_sky] first loses
    nothing and is how the paper's experiments run.

    {b Certified skips.} Most pairs of the scan are a happy victim [p]
    against a [q] whose polytope [P_q] is too small to hold it. Each [q]
    gets a {!certificate} [α_q]: non-negative weights on rows [r_k] of its
    own vertex set [V_q] (as {!cut_box_vertices_flat} emits them, bit for
    bit) whose weighted average [c] has every coordinate [>= α_q]. For
    [p >= 0] that gives [max_k r_k·p >= c·p >= α_q·Σp]. So when
    [α_q > skip_threshold p], some row has [r_k·p > 1 + eps] by a relative
    margin of about [2e-12]. The computed sums have at most [2d + 1]
    non-negative terms, so each is within [(2d + 2)] ulps of its exact
    value: [fl(Σp)], the weighted average, and the sweep's own
    [fl(r_k·p)]. These errors are far below the [1e-12] margins for every
    [d <= 20], hence [fl(r_k·p) > 1 + eps], and the membership sweep would
    have refuted [p ∈ P_q]. The screen sorts its probe order by ascending
    [α] and probes each victim only up to the first [α_q] above its
    threshold. Every pair it skips has the verdict "no subjugation" it
    would have had when probed, so the verdicts, and agreement with
    {!subjugates}, are exact. *)

(** [cut_box_vertices q] enumerates the vertices of
    [Q_q = [0,1]^d ∩ {w . q <= 1}]: the surviving box corners plus the
    intersections of the cut hyperplane with box edges. *)
val cut_box_vertices : Kregret_geom.Vector.t -> Kregret_geom.Vector.t list

(** [cut_box_vertices_flat q] is the same enumeration written into a
    flat SoA buffer (rows in generation order — [cut_box_vertices] returns
    the reversed list) with no per-vertex allocation; the hot screen in
    {!happy_points} runs on these. *)
val cut_box_vertices_flat : Kregret_geom.Vector.t -> Kregret_geom.Flat.t

(** [certificate q] is the certificate [α_q] of the screen's skip
    (see above): about [1/Σq] when [Σq > 1], and [0] (never skips) when
    [Σq <= 1], some [q_i <= 0], or a row it needs is missing from
    [V_q]. *)
val certificate : Kregret_geom.Vector.t -> float

(** [skip_threshold p] is the largest certificate the screen still
    probes for victim [p]: about [(1 + eps)/Σp], infinite unless
    [p >= 0]. *)
val skip_threshold : Kregret_geom.Vector.t -> float

(** [subjugates q p] — does [q] subjugate [p]? Both points must be
    strictly positive and lie in [(0,1]^d]. A point never subjugates itself
    (or an exact duplicate). *)
val subjugates : Kregret_geom.Vector.t -> Kregret_geom.Vector.t -> bool

(** [subjugator q] is [subjugates q], with [q]'s vertex set
    enumerated once for every [p] it is applied to: the same boxed sweep,
    hence the same verdicts. *)
val subjugator : Kregret_geom.Vector.t -> Kregret_geom.Vector.t -> bool

(** [is_happy ~candidates p] — true when no point of [candidates] subjugates
    [p] ([p] itself, by identity or by value, never counts against). *)
val is_happy :
  candidates:Kregret_geom.Vector.t list -> Kregret_geom.Vector.t -> bool

(** A prepared screen over a point array: every point's flat vertex set
    and certificate, and the probe order (ascending [α], then coordinate
    sum descending, then index). {!prepare} builds it in parallel; it
    holds [O(n 2^d d)] floats. *)
type screen

val prepare : Kregret_geom.Vector.t array -> screen

(** [verdict s i] screens point [i] against every point of [s]: [None]
    when it is happy, [Some j] when point [j] subjugates it (the first
    subjugator in probe order, so the witness does not depend on the pool
    width). It only reads [s], so verdicts of different points may run on
    different domains, and it adds its own work to the [happy.candidates],
    [happy.kept] or [happy.pruned], [happy.subjugation_probes] and
    [happy.certified_skips] counters. A caller that needs the verdicts of
    a few points only (the lazy [Stored_list.funnel]) pays for
    those few. *)
val verdict : screen -> int -> int option

(** [verdicts points] is [verdict] of every point over one prepared
    screen, run on the pool. *)
val verdicts : Kregret_geom.Vector.t array -> int option array

(** [happy_points points] filters an array to its happy members (the
    points whose {!verdicts} are [None]), returning ascending indices
    (mirroring {!Kregret_skyline.Skyline}). The input should normally be a
    skyline. *)
val happy_points : Kregret_geom.Vector.t array -> int array

(** [of_dataset ds] computes skyline then happy points, returning the happy
    subset as a dataset named ["<name>/happy"]. *)
val of_dataset : Kregret_dataset.Dataset.t -> Kregret_dataset.Dataset.t
