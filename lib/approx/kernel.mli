(** ε-kernel candidate reduction: shrink a normalized dataset to the set
    of per-direction extreme points of a deterministic direction net,
    before the (superlinear) happy filter and GeoGreedy ever see it.

    {b The net.} Regret ratios are invariant under scaling the utility
    direction, so every non-negative direction can be normalized to
    [||w||_inf = 1] — the union of the [d] faces of the unit cube that
    touch the all-ones corner. The net places a uniform grid of step
    [1/m] on those faces: all vectors with coordinates in
    [{0, 1/m, ..., 1}] having at least one coordinate equal to [1],
    enumerated face by face (face [f] pins coordinate [f] to [1]; a
    vector is kept only on the face of its {e first} unit coordinate, so
    each direction appears exactly once). The net has
    [(m+1)^d - m^d] directions and L1 covering radius
    [(d-1) / (2m)] over the normalized direction set.

    {b The bound.} For normalized data (every coordinate in [(0, 1]] and
    every dimension attaining [1]), [max_D w·p >= 1] for any [||w||_inf
    = 1], and rounding [w] to its nearest net direction moves any dot
    product by at most the L1 rounding distance. Hence the kernel [K]
    (the set of per-direction maxima) satisfies

    [mrr_D(K) <= slack]  where  [slack = min 1 ((d-1) / (2m))],

    and for any selection [S ⊆ K],
    [mrr_D(S) <= mrr_K(S) + slack] — the certificate
    {!Pipeline.certified_bound} advertises. Both inequalities are
    theorems (fuzzed by [Kregret_check.Approx_oracle]); note that no
    comparable bound links greedy-on-[K] to greedy-on-[D] directly,
    because GeoGreedy is itself a heuristic.

    [eps] is the requested slack: the resolution is the smallest [m]
    with [(d-1) / (2m) <= eps], so the advertised [slack] never exceeds
    [eps]. Halving [eps] exactly doubles [m], and a grid of step
    [1/(2m)] contains the grid of step [1/m], so the net — and therefore
    the kernel — grows monotonically as [eps] shrinks.

    {b Determinism.} Net enumeration order is a pure function of [(d,
    m)]. The per-direction scan is {!Kregret_geom.Flat.champions} (first
    row wins exact ties, bit-identical to the boxed reference fold)
    parallelized with {!Kregret_parallel.Pool.map_reduce}; each
    direction owns its out slot, so results are bit-identical for every
    pool width. *)

(** A materialized direction net. [slack] is the advertised worst-case
    regret bound [min 1 ((d-1) / (2 * resolution))] ([0.] when
    [d = 1]). *)
type net = {
  dirs : Kregret_geom.Flat.t;
  d : int;
  resolution : int;
  slack : float;
  eps : float;
}

(** [resolution_for ~d ~eps] — the grid resolution [m] used for [eps]:
    the smallest [m >= 1] with [(d-1) / (2m) <= eps] (computed with a
    small guard so that [eps = (d-1) / (2m)] maps back to exactly [m]).
    Raises [Invalid_argument] unless [0 < eps <= 1]. *)
val resolution_for : d:int -> eps:float -> int

(** [slack_for ~d ~eps] — the advertised bound without building the
    net. *)
val slack_for : d:int -> eps:float -> float

(** [net_size ~d ~resolution] — [(m+1)^d - m^d] as a float (so callers
    can budget before building). *)
val net_size : d:int -> resolution:int -> float

(** [net ~d ~eps] builds the direction net. Raises [Invalid_argument]
    rather than enumerate more than 2,000,000 directions. *)
val net : d:int -> eps:float -> net

type result = {
  ids : int array;
      (** kernel: strictly ascending original row ids of every
          per-direction maximum *)
  winners : int array;
      (** [winners.(j)] — original row id of the maximizer of direction
          [j] (first row wins exact ties) *)
  n_input : int;
  directions : int;
  resolution : int;
  slack : float;  (** advertised bound for the resolution actually used *)
  eps : float;
  scan_seconds : float;
}

(** [reduce ~eps points] scans every net direction over [points] and
    returns the kernel, as row indices of [points]. Rows must be
    non-empty and share one dimension. Raises [Invalid_argument] when the
    net would pass {!net}'s cap. *)
val reduce : eps:float -> Kregret_geom.Vector.t array -> result

(** [select r points] — the kernel rows of [points], the array [r] was
    reduced from. *)
val select : result -> Kregret_geom.Vector.t array -> Kregret_geom.Vector.t array
