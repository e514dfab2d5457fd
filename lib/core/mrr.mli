(** Maximum regret ratio evaluators.

    Three independent implementations of Definition 2 / Lemma 1 — geometric
    (dual polytope), linear programming, and Monte-Carlo sampling — plus the
    finite-function-class variant used by the paper's running example
    (Tables I and II). The first two are exact and agree to numerical
    tolerance; the sampling evaluator is a lower bound that converges from
    below, used as an end-to-end sanity check in the tests and benches. *)

(** [geometric ~data ~selected] — Lemma 1 via the dual polytope:
    [mrr(S) = max 0 (1 - min_q cr(q, S))]. Exact for any non-empty
    [selected] with strictly positive coordinates. *)
val geometric :
  data:Kregret_geom.Vector.t list -> selected:Kregret_geom.Vector.t list ->
  float

(** [critical_ratios ~selected points] — [cr(q, S)] of every point, from
    the dual polytope {!geometric} builds: [geometric ~data ~selected] is
    [max 0 (1 - m)] for [m] the minimum of these over [data], bit for
    bit. *)
val critical_ratios :
  selected:Kregret_geom.Vector.t list -> Kregret_geom.Vector.t array ->
  float array

(** [lp ~data ~selected] — the same quantity via one critical-ratio LP per
    point of [data] (what the baseline [Greedy] evaluates internally). *)
val lp :
  data:Kregret_geom.Vector.t list -> selected:Kregret_geom.Vector.t list ->
  float

(** [sampled ~rng ~samples ~data ~selected] — empirical maximum of
    [rr(S, f_w)] over [samples] random non-negative unit directions [w]
    (Gaussian-orthant and sparse axis-biased mixtures). Always [<=] the
    exact value.

    The budget is split into fixed 64-sample blocks, each driven by an
    independent generator derived from [rng] by [Rng.split], and the
    blocks are evaluated on the domain pool. The block layout depends
    only on [samples], so the estimate is bit-identical for every
    [KREGRET_JOBS] / [--jobs] setting. *)
val sampled :
  rng:Kregret_dataset.Rng.t ->
  samples:int ->
  data:Kregret_geom.Vector.t list ->
  selected:Kregret_geom.Vector.t list ->
  float

(** [finite_class ~weights ~data ~selected] — [mrr] over an explicit finite
    set of linear utility functions, as in the paper's car example where
    [F = {f_(0.3,0.7), f_(0.5,0.5), f_(0.7,0.3)}]. *)
val finite_class :
  weights:Kregret_geom.Vector.t list ->
  data:Kregret_geom.Vector.t list ->
  selected:Kregret_geom.Vector.t list ->
  float

(** [regret_for_weight ~weight ~data ~selected] — [rr(S, f_w)] for one
    utility function (Definition 1). *)
val regret_for_weight :
  weight:Kregret_geom.Vector.t ->
  data:Kregret_geom.Vector.t list ->
  selected:Kregret_geom.Vector.t list ->
  float

(** [random_direction rng d] — one random non-negative unit direction of the
    mixture [sampled] draws from: with probability 1/2 a Gaussian-orthant
    direction (uniform on the positive part of the sphere), otherwise a
    sparse direction supported on [1 + Rng.int rng d] {e distinct} axes
    (partial Fisher–Yates) with weights in [[0.05, 1.05)]. Exposed for the
    statistical regression tests of the sparse branch. *)
val random_direction : Kregret_dataset.Rng.t -> int -> Kregret_geom.Vector.t
