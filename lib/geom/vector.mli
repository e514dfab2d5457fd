(** Dense d-dimensional float vectors.

    All geometry in this library operates on non-negative points normalized to
    [(0,1]^d], but the vector operations themselves are fully general. Vectors
    are plain [float array]s so that callers can index directly; the functions
    here never mutate their arguments unless the name says so ([add_in_place],
    [scale_in_place]). *)

type t = float array

(** [dim v] is the dimensionality of [v]. *)
val dim : t -> int

(** [init d f] is [| f 0; ...; f (d-1) |]. *)
val init : int -> (int -> float) -> t

(** [copy v] is a fresh vector equal to [v]. *)
val copy : t -> t

(** [basis d i] is the [i]-th standard basis vector of R^d (the paper's
    virtual corner point [vc_i]). Raises [Invalid_argument] unless
    [0 <= i < d]. *)
val basis : int -> int -> t

(** [dot u v] is the inner product, accumulated strictly left to right in
    coordinate order (4-wide unrolled single-accumulator chain — the same
    rounding as the naive loop). Raises [Invalid_argument] on dimension
    mismatch. *)
val dot : t -> t -> float

(** [dot_unsafe u v] is [dot u v] without the dimension check or bounds
    checks. Reserved for kernel-grade hot loops whose callers guarantee
    [dim v >= dim u]; everything else should call {!dot}. *)
val dot_unsafe : t -> t -> float

(** [norm v] is the Euclidean norm. *)
val norm : t -> float

(** [norm1 v] is the L1 norm. *)
val norm1 : t -> float

(** [norm_inf v] is the L-infinity norm. *)
val norm_inf : t -> float

(** [add u v] is the coordinate-wise sum. *)
val add : t -> t -> t

(** [sub u v] is the coordinate-wise difference [u - v]. *)
val sub : t -> t -> t

(** [scale a v] is [a * v]. *)
val scale : float -> t -> t

(** [add_in_place u v] adds [v] into [u]. *)
val add_in_place : t -> t -> unit

(** [scale_in_place a v] multiplies [v] by [a] in place. *)
val scale_in_place : float -> t -> unit

(** [normalize v] is [v] scaled to unit Euclidean norm. Raises
    [Invalid_argument] on the zero vector. *)
val normalize : t -> t

(** [lerp u v t] is the convex combination [(1-t) u + t v]. *)
val lerp : t -> t -> float -> t

(** [equal ~eps u v] tests coordinate-wise equality within absolute
    tolerance [eps]. *)
val equal : eps:float -> t -> t -> bool

(** [max_coord v] is [(i, v.(i))] for the largest coordinate (smallest index
    wins ties). *)
val max_coord : t -> int * float

(** [min_coord v] is [(i, v.(i))] for the smallest coordinate. *)
val min_coord : t -> int * float

(** [sum v] is the sum of coordinates. *)
val sum : t -> float

(** [is_nonneg ~eps v] is true when every coordinate is [>= -eps]. *)
val is_nonneg : eps:float -> t -> bool

(** [pp] formats a vector as [(x1, ..., xd)] with 4 decimal places. *)
val pp : Format.formatter -> t -> unit

(** [to_string v] is [Format.asprintf "%a" pp v]. *)
val to_string : t -> string
