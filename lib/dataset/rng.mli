(** Deterministic pseudo-random numbers (xoshiro256++ seeded by splitmix64).

    The benchmark harness must regenerate identical datasets across runs and
    processes, so the library carries its own generator instead of relying on
    [Stdlib.Random]'s unspecified evolution between OCaml versions. *)

type t

(** [create seed] builds a generator from a 64-bit seed (the seed is expanded
    with splitmix64, so small consecutive seeds give well-decorrelated
    streams). *)
val create : int -> t

(** [split t] derives an independent generator; the parent advances. *)
val split : t -> t

(** [int t bound] is uniform in [0, bound); [bound > 0]. *)
val int : t -> int -> int

(** [float t] is uniform in [0, 1). *)
val float : t -> float

(** [gaussian t ~mu ~sigma] samples a normal deviate (Box–Muller). *)
val gaussian : t -> mu:float -> sigma:float -> float

(** [exponential t ~rate] samples Exp(rate). *)
val exponential : t -> rate:float -> float

(** [bits t] is the raw next 64-bit word (for tests). *)
val bits : t -> int64
