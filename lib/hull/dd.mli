(** Incremental vertex maintenance for polytopes [{ w >= 0 : a_j . w <= b_j }]
    (the double-description method, Motzkin et al. / Fukuda–Prodon).

    This is the dual-side engine behind the paper's GeoGreedy: by antiblocking
    polarity, the faces of the primal hull [Conv(S)] that do not pass through
    the origin are exactly the vertices of the dual polytope
    [Q(S) = { w >= 0 : p . w <= 1, p in S }], and inserting a point into [S]
    is adding one halfspace here. The paper's "remove the face crossed by the
    ray, create the faces around the new point" (Section IV-A) is this
    module's [add_constraint]: vertices cut by the new halfspace are removed
    and new vertices appear on the new hyperplane.

    The polytope starts as the box [[0, bound]^d] so that the vertex set is
    well-defined before enough constraints arrive to bound the orthant
    intersection. Callers must ensure the *final* polytope is genuinely
    bounded away from the box (for the regret use-case: the selection
    contains an i-th dimension boundary point with value 1 for every i, which
    confines [Q] to [[0,1]^d]); until then, vertices lying on the artificial
    box faces are reported like any others.

    Every vertex carries the exact set of tight constraints, as a sorted
    array and as a bitset. Adjacency for the DD step first counts the
    common constraints with a popcount over the AND-ed bitsets, and only
    pairs sharing at least [d-1] of them run the algebraic rank-(d-1)
    test. Complexity of one insertion is
    [O(|cut| * |keep| * m/62 + a * d^3 + |V| * m * d)], where [a] counts
    the pairs that pass the popcount (a small fraction of
    [|cut| * |keep|] in practice) — the last term recomputes tight sets of
    newly created vertices against all [m] constraints, which keeps the
    structure robust under degeneracy. *)

type t

type vertex = {
  id : int;  (** unique, never reused *)
  w : Kregret_geom.Vector.t;  (** coordinates; do not mutate *)
  tight : int array;  (** sorted indices of tight constraints *)
  bits : int array;
      (** [tight] as a bitset: constraint [j] is bit [j mod 62] of word
          [j / 62]; words past the end are zero *)
}

type event = {
  removed : int list;  (** ids of vertices cut by the constraint *)
  created : vertex list;  (** vertices born on the new hyperplane *)
  touched : vertex list;
      (** surviving vertices that lie exactly on the new hyperplane (their
          tight sets were refreshed). Together with [created] they carry
          every vertex of the optimum face for any direction whose old
          champion was removed — the completeness fact behind GeoGreedy's
          incremental re-assignment (see {!Dual_polytope}). *)
  redundant : bool;  (** true when the constraint cut nothing *)
}

(** [create ~dim ~bound ()] is the box [[0, bound]^d] (default bound
    [1e3]) with its [2^dim] corner vertices. Raises [Invalid_argument] for
    [dim < 1] or [dim > 16]: the corner enumeration is exponential in
    [dim], and past 16 it would silently allocate hundreds of thousands of
    seed vertices before any constraint arrives. *)
val create : ?bound:float -> dim:int -> unit -> t

(** The largest accepted [dim] (16). *)
val max_dim : int

(** [dim t] is the ambient dimension. *)
val dim : t -> int

(** [add_constraint t ~normal ~offset] intersects the polytope with
    [normal . w <= offset] and reports the vertex-set delta. The normal may
    be any vector; the regret use-case always passes a data point (normal
    [>= 0], offset 1). *)
val add_constraint :
  t -> normal:Kregret_geom.Vector.t -> offset:float -> event

(** [vertices t] is the current vertex list, in flat-store row order — a
    deterministic function of the operation sequence (see {!flat_view}). *)
val vertices : t -> vertex list

(** [flat_view t] exposes the flat mirror of the live vertex coordinates:
    a matrix whose row [r] holds the coordinates of vertex [ids.(r)], for
    [r < Flat.rows store] (later [ids] entries are garbage). This is the
    buffer the blocked champion kernel streams (ISSUE 6). Read-only view:
    do not mutate it, and treat it as invalidated by {!add_constraint}. *)
val flat_view : t -> Kregret_geom.Flat.t * int array

(** [num_vertices t] is [List.length (vertices t)] without the allocation. *)
val num_vertices : t -> int

(** [num_constraints t] counts the constraints added so far (excluding the
    implicit non-negativity and box constraints). *)
val num_constraints : t -> int

(** [max_dot t q] is the vertex maximizing [w . q] together with the value —
    the dual form of the paper's ray-shooting query ([cr(q, S) =
    offset-normalized 1 / max]). Raises [Invalid_argument] if the polytope
    somehow has no vertices (cannot happen through this API). *)
val max_dot : t -> Kregret_geom.Vector.t -> vertex * float

(** [find_vertex t id] retrieves a live vertex by id. *)
val find_vertex : t -> int -> vertex option

(** [contains ~eps t w] tests membership of [w] in the current polytope. *)
val contains : eps:float -> t -> Kregret_geom.Vector.t -> bool

(** [popcount x] counts the set bits of [x], for [0 <= x < 2^62] (one
    bitset word of {!vertex}). *)
val popcount : int -> int

(** [check_invariants t] verifies internal consistency (every vertex
    satisfies all constraints within [1e-7]; tight sets are exact and of
    rank [d]); used by the test suite. Raises [Failure] with a description
    on violation. *)
val check_invariants : t -> unit
