(** The dual polytope [Q(S) = { w >= 0 : p . w <= 1, p in S }] of a selection
    [S], with regret-query semantics.

    By the polarity argument spelled out in DESIGN.md §2, the vertices of
    [Q(S)] are (scaled to offset 1) the hyperplanes containing the faces of
    the paper's [Conv(S)] that do not pass through the origin, and

    {v cr(q, S) = 1 / max { w . q : w vertex of Q(S) } v}

    so the paper's ray-shooting query (Definition 5) is a max-dot-product
    scan here, and inserting a point into [S] updates only the vertices cut
    by its halfspace — the incremental index of Section IV-A.

    Precondition inherited from the paper: the data is normalized so that for
    each dimension [i] some point has value 1, and the selection is seeded
    with such boundary points ({!Geo_greedy} does this). Before boundary
    points are inserted, critical ratios are computed against an artificial
    bounding box and are only meaningful as "very small". *)

type t

(** [create ~dim ()] is [Q] of the empty selection (the bounding box — see
    {!Dd.create}). *)
val create : ?bound:float -> dim:int -> unit -> t

(** [insert t p] adds point [p] to the selection; returns the {!Dd.event}
    describing which dual vertices died and which were created. *)
val insert : t -> Kregret_geom.Vector.t -> Dd.event

(** [critical_ratio t q] is [cr(q, S)] (Definition 3 of the paper) for the
    current selection. Values [< 1] mean [q] sticks out of [Conv(S)];
    [>= 1] means [q] is covered. *)
val critical_ratio : t -> Kregret_geom.Vector.t -> float

(** [champion t q] is the dual vertex attaining [max w . q] and the value —
    the face of [Conv(S)] crossed by the ray through [q], in dual clothing.
    [critical_ratio t q = 1. /. snd (champion t q)] when the value is
    positive. *)
val champion : t -> Kregret_geom.Vector.t -> Dd.vertex * float

(** [max_regret_ratio t ~data] is [mrr(S)] by Lemma 1:
    [max 0 (1 - min_q cr(q, S))] over [q] in [data]. *)
val max_regret_ratio : t -> data:Kregret_geom.Vector.t list -> float

(** [num_vertices t] is the current number of dual vertices (= number of
    primal faces not through the origin, up to degeneracy). *)
val num_vertices : t -> int


(** [flat_view t] is {!Dd.flat_view} of the underlying structure: the flat
    vertex-coordinate matrix and its row → vertex-id map, for the blocked
    champion kernel (ISSUE 6). *)
val flat_view : t -> Kregret_geom.Flat.t * int array

(** [dd t] exposes the underlying double-description structure (used by the
    incremental GeoGreedy and by tests). *)
val dd : t -> Dd.t
