(** Datasets: named collections of d-dimensional points.

    The paper's data model (Section II): every point lives in [(0,1]^d],
    larger is better on every dimension, and the data is normalized so that
    for each dimension some point has value exactly 1. [normalize] enforces
    this model on raw data. *)

type t = {
  name : string;
  dim : int;
  points : Kregret_geom.Vector.t array;
}

(** [create ~name points] packs points into a dataset, checking that all
    share a dimension. Raises [Invalid_argument] on an empty array or mixed
    dimensions. *)
val create : name:string -> Kregret_geom.Vector.t array -> t

(** [size t] is the number of points. *)
val size : t -> int

(** [to_list t] is the points as a list (freshly allocated spine; the point
    arrays themselves are shared). *)
val to_list : t -> Kregret_geom.Vector.t list

(** [normalize t] rescales every dimension into [(0,1]]: values are
    divided by the per-dimension maximum (values must be non-negative) and
    then floored at [1e-6] to respect the paper's strict-positivity
    assumption. Raises [Invalid_argument] when a dimension is identically
    zero. *)
val normalize : t -> t

(** [is_normalized ~eps t] checks the data model: all values in [(0,1]] and
    each dimension attains [1] within [eps]. *)
val is_normalized : eps:float -> t -> bool

(** [boundary_point t i] is an index of a point maximizing dimension [i]
    (the paper's i-th dimension boundary point). *)
val boundary_point : t -> int -> int

(** [sub t ~indices] restricts to the given point indices (in order). *)
val sub : t -> indices:int array -> t

(** [pp_stats] prints name, size and dimension. *)
val pp_stats : Format.formatter -> t -> unit
