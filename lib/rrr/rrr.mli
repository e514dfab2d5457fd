(** Rank-regret representatives (RRR): the sibling query family to
    k-regret, served from the same skyline → geometry substrate.

    Where the regret ratio asks "what fraction of the best score does the
    selection lose?", rank-regret asks "how far down the full ranking can
    the selection's best member fall?" — a scale-free guarantee (Asudeh
    et al., "RRR: Rank-Regret Representative"; Xiao & Li, "Rank-Regret
    Minimization", PAPERS.md).

    {b Definitions.} For a direction [w >= 0] and dataset [D], the rank of
    a point [p] is [1 + #{q in D : w.q > w.p}] (strict ties share the
    better rank — the {e tie rule}; duplicates of [p] do not outrank it).
    The rank of a set [S] under [w] is the best member rank, which by a
    comparison-only identity (every step compares the same float scores,
    so it holds bit for bit) equals

    {v rank_w(S) = 1 + #{q in D : w.q > max over s in S of w.s} v}

    — one scan against the member maximum, no per-member ranking. The
    {e max rank} of [S] is the supremum of [rank_w(S)] over all non-zero
    [w >= 0]; a set with max rank [r] is in the top-[r] of every linear
    preference.

    {b d = 2: exact.} Directions normalize to [w = (t, 1 - t)], [t] in
    [(0, 1)]. For each (point, member) pair the beat predicate
    [w.q > w.s] changes at most once, at [t* = b / (b - a)] with
    [a = qx - sx], [b = qy - sy] (a crossing exists only when [a] and [b]
    have strictly opposite signs). Sweeping the sorted crossing events
    while maintaining per-point beat counts visits every cell of the
    direction arrangement, so the reported max rank is exact (in exact
    pairwise-sign semantics; a dot-product evaluation of the witness can
    disagree only when scores are within rounding error of a tie).

    {b d >= 3: certified sandwich.} Exact arrangement enumeration is
    superpolynomial, so the engine reports a certified interval
    [\[lo, hi\]]: [lo] is the best rank actually attained on the
    deterministic direction net of {!Kregret_approx.Kernel} (a realized
    witness — the true max rank is at least [lo]), and [hi] comes from the
    dual polytope [Q(S)] of {!Kregret_hull.Dual_polytope}: a point can
    outrank every member of [S] under {e some} direction iff its critical
    ratio is below 1, i.e. iff some vertex [v] of [Q(S)] has [q.v > 1], so
    [1 + #{q : max over vertices v of q.v > 1}] bounds [rank_w(S)] for
    {e every} [w] at once. The vertex scan is the blocked
    {!Kregret_geom.Flat.champions} kernel parallelized over disjoint
    target ranges.

    {b Determinism.} Every parallel region either writes disjoint slots or
    folds with {!Kregret_parallel.Pool.map_reduce} (sequential
    left-to-right reduce, first-wins argmax) — results are bit-identical
    for every pool width. The d = 2 sweep is sequential. *)

(** A certified rank interval. [lo <= true max rank] (realized by
    [witness]); [true max rank <= hi]. [exact] iff [lo = hi] — always in
    d <= 2. [witness] is the direction attaining [lo]: [(t, 1 - t)] in
    d = 2, a net direction ([||w||_inf = 1]) otherwise. *)
type rank = {
  lo : int;
  hi : int;
  witness : float array;
  exact : bool;
}

(** Default direction budget (1024): the net resolution is the largest
    [m] with [(m+1)^d - m^d <= budget], never below the [eps = 1]
    minimum grid. In high dimension even that minimum net can exceed
    the budget; it is then deterministically thinned (every stride-th
    direction) back under the budget — sound, since [lo] is a
    realized-witness bound for any direction subset. *)
val default_budget : int

(** [max_rank ~points set] — the certified max rank of the rows [set]
    (indices into [points]) over all linear preferences. Raises
    [Invalid_argument] on an empty [set], an empty dataset, or an
    out-of-range index. *)
val max_rank :
  ?budget:int -> points:Kregret_geom.Vector.t array -> int array -> rank

(** A rank table: the net directions, the candidate set and the rank
    matrix [R(j, c)] of every candidate [c] under every net direction [j]
    against the {e full} dataset. Everything {!select} needs, and nothing
    that depends on [max_size] — so one table serves every [k]. *)
type table

(** [table points] scores a normalized dataset for rank-regret selection:

    + candidates default to the skyline — the exact completeness
      class for rank: under any [w >= 0] a dominator scores at least its
      dominee, so [rank_w(dominator) <= rank_w(dominee)]. (GeoGreedy's
      happy funnel is deliberately {e not} used: subjugation only bounds
      scores against the virtual corners, so a non-happy skyline point
      can still be the strict top-1 of some direction, leaving the happy
      set impossible to drive to rank 1.) [?candidates] overrides with
      explicit row indices (the serving tier passes the published
      snapshot's [candidates]: for exact loads the skyline of the basis,
      for ε loads the skyline of the merged ε-kernel, see
      [Kregret.Snapshot]);
    + the rank matrix [R(j, c) = 1 + #{q : w_j.q > w_j.c}], built by one
      allocation-free kernel: a pool region over direction ranges, each
      chunk owning its scratch. Per direction it scores every row with
      {!Kregret_geom.Flat.slacks} (the same fold as
      {!Kregret_geom.Flat.dot}, unboxed), sorts the non-NaN scores
      descending with a byte-radix sort on the float's order key (O(n)
      on every input — rows come from clients, so none may drive the
      sort quadratic), and binary-searches each candidate's
      strictly-greater count. Each rank is an integer count of float
      comparisons, so the table is bit-identical at every pool width
      and whatever order equal scores sort in.

    Ranks are at most [n + 1] and are stored in 32 bits: a table costs
    [4 * directions * candidates] bytes beside the flat copy of the rows.
    Counted by [rrr.rank_tables]. Raises [Invalid_argument] on empty
    data, [budget < 1], or empty or out-of-range candidates. *)
val table :
  ?budget:int -> ?candidates:int array -> Kregret_geom.Vector.t array -> table

(** A built rank-regret engine: a greedy selection order over the
    candidate set minimizing the (certified) max rank of each prefix. *)
type t

(** [select tb] runs the greedy over a table: repeatedly add the candidate
    minimizing [max over j of min(cur(j), R(j, c))] where [cur(j)] is the
    running set rank under direction [j] (ties: smallest candidate
    position wins), recording a certified {!rank} for every prefix,
    stopping at [?max_size] (default: all candidates) or when the bound
    reaches 1. It reads the table and never changes it, so any number of
    selections may share one table, concurrently too. Counted by
    [rrr.builds]. Raises [Invalid_argument] on [max_size < 1]. *)
val select : ?max_size:int -> table -> t

(** [build points] is [select ?max_size (table ?budget ?candidates
    points)]: one engine, its table dropped afterwards.

    The greedy order is a pure function of the candidate set — a prefix
    of a [build] with a larger [max_size] is bit-identical to a build
    with the smaller one, so per-[k] queries compose, and [select] over
    one table answers every [k]. Raises what {!table} and {!select}
    raise. *)
val build :
  ?budget:int ->
  ?max_size:int ->
  ?candidates:int array ->
  Kregret_geom.Vector.t array ->
  t

(** [query t ~k] — the first [min k (size t)] greedy rows (original row
    indices, selection order) and the certified rank of that prefix.
    Raises [Invalid_argument] on [k < 1]. *)
val query : t -> k:int -> int list * rank

(** The full greedy order (original row indices). *)
val order : t -> int array

(** [bounds t].(i) — certified rank of the [(i + 1)]-prefix. [lo] is
    non-increasing along prefixes (an exact integer theorem: adding a
    member can only lower per-direction set ranks). *)
val bounds : t -> rank array

val size : t -> int
(** Rows actually selected ([<= max_size], fewer on early stop). *)

val sky_ids : t -> int array
(** Skyline row indices ([[||]] when [?candidates] was supplied). *)

val cand_ids : t -> int array
(** Candidate row indices the greedy ran over (the skyline by default). *)

val directions : t -> int
(** Net directions used for the rank table and [lo] certificates. *)

val resolution : t -> int
(** Net grid resolution [m]. *)

val dim : t -> int

(** [size_for t ~target] — the smallest prefix length whose certified
    [hi] is [<= target], if any prefix achieves it. *)
val size_for : t -> target:int -> int option
