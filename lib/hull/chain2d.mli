(** Exact 2-D convex hull of a downward-closed point set, by Andrew's
    monotone chain.

    The 2-D specialization of the paper's [Conv(S)]: the faces not through
    the origin are the edges of the "upper-right" chain from the point with
    maximal x to the point with maximal y (plus the two axis-projection
    edges). Used as an independent reference implementation against which the
    d-dimensional dual machinery is property-tested. *)

type hull = {
  chain : Kregret_geom.Vector.t array;
      (** extreme points of the upper-right chain, ordered by decreasing x
          (equivalently increasing y); the first element maximizes x, the
          last maximizes y *)
}

(** [upper_chain points] computes the chain of extreme points of the downward
    closure of [points] (all in the non-negative quadrant). Raises
    [Invalid_argument] on an empty list or non-2-D points. *)
val upper_chain : Kregret_geom.Vector.t list -> hull

(** [critical_ratio hull q] is [cr(q, S)] computed by walking the chain:
    the ray from the origin through [q] crosses exactly one chain edge (or
    one of the axis-projection edges). *)
val critical_ratio : hull -> Kregret_geom.Vector.t -> float
