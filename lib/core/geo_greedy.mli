(** The GeoGreedy algorithm (Algorithm 1 of the paper).

    Identical greedy skeleton to the [Greedy] of Nanongkai et al. (VLDB
    2010): seed the selection with the [d] dimension-boundary points, then
    repeatedly insert the point with the smallest critical ratio for the
    current selection, stopping early when every remaining point has
    [cr >= 1] (maximum regret ratio 0). The difference — and the paper's
    speed-up — is that critical ratios come from an incrementally maintained
    geometric index instead of per-candidate linear programs.

    Our index is the dual polytope [Q(S)] ({!Kregret_hull.Dual_polytope}).
    Each candidate [q] caches its {e champion}: the dual vertex maximizing
    [w . q] (equivalently, the face of [Conv(S)] its ray crosses). On an
    insertion, only candidates whose champion was cut re-scan — and only the
    vertices created on or touched by the new hyperplane, exactly mirroring
    the paper's "only the points whose lines cross the removed face have to
    be re-computed ... against the newly constructed faces". Candidates
    whose champion survived keep it: the polytope only shrinks, so a
    surviving maximizer stays maximal.

    The expected input is a happy-point set ([Kregret_happy.Happy]), per the
    paper's Lemma 2; the algorithm itself accepts any candidate array in
    [(0,1]^d] whose per-dimension maxima are 1. *)

type result = {
  order : int list;
      (** indices of the selected points in insertion order (boundary seeds
          first); length [<= k] — shorter when the hull closed early with
          [mrr = 0] *)
  mrr : float;
      (** maximum regret ratio of the selection w.r.t. the candidate array
          (by Lemma 1, also w.r.t. any superset [D] of the candidates whose
          per-dimension boundary points are included — see DESIGN.md) *)
  iterations : int;  (** greedy iterations executed after seeding *)
  rescans : int;
      (** champion re-computations performed — the work the incremental
          index saves; exposed for the ablation bench *)
  dual_vertices : int;  (** final number of dual vertices (primal faces) *)
  lp_fallback_at : int option;
      (** selection size at which the hybrid LP fallback engaged, if it did
          (see [max_dual_vertices]) *)
}

(** [run ~points ~k ()] executes GeoGreedy. [k >= 1] required; if [k < d]
    only the first [k] dimension-boundary points are selected (the paper
    assumes [k >= d]; Section VII shows the regret is unbounded below [d]
    anyway). [use_champion_cache:false] disables the incremental index and
    re-scans every candidate against every vertex at each step (for the
    ablation); results are identical. [on_step] is invoked after seeding and
    after every insertion with the current selection size and its maximum
    regret ratio — {!Stored_list} uses it to materialize the prefix table.

    [max_dual_vertices] arms the {e hybrid} mode: if the dual polytope ever
    exceeds that many vertices — the face-count explosion of high dimensions
    (d >= 8), where maintaining the geometric index costs more than the LPs
    it replaces (EXPERIMENTS.md, Figure 9 entry) — the remaining iterations
    compute critical ratios with the baseline's per-candidate LP instead.
    The greedy choices, and hence the output, are unchanged.

    [admit] runs the greedy over the candidates it accepts, without
    knowing them up front: it is asked about a candidate, at most once,
    only when that candidate would be taken as a boundary seed or as the
    argmax, or would supply the reported maximum (the stop test and the
    mrr after each step). A refused candidate leaves the run for good and
    the pick is retaken. Since the accepted candidates keep their relative
    order and a candidate's champion value depends only on itself and the
    selection, every seed, argmax, stop test and reported mrr is the one
    a run over the accepted candidates alone computes, and [order] holds
    the same points, as indices into [points]. The lazy
    {!Stored_list.funnel} passes the happy screen's verdict, so it
    certifies only the points the greedy reaches. [order] is empty when
    [admit] refuses every candidate. Refusals are counted in
    [geo_greedy.refused].

    Raises [Invalid_argument] on an empty candidate array, [k < 1], or
    [admit] together with [max_dual_vertices] (the LP phase scans every
    candidate). *)
val run :
  ?use_champion_cache:bool ->
  ?max_dual_vertices:int ->
  ?admit:(int -> bool) ->
  ?on_step:(size:int -> mrr:float -> unit) ->
  points:Kregret_geom.Vector.t array ->
  k:int ->
  unit ->
  result

(** [boundary_seeds points d] — for each dimension, the index of a point
    maximizing it (first maximum wins), duplicates collapsed, in dimension
    order. Lines 2–4 of Algorithm 1; shared with the {!Greedy_lp}
    baseline so both algorithms start from the same seeds. *)
val boundary_seeds : Kregret_geom.Vector.t array -> int -> int list
