(** A small modelling layer over {!Simplex}.

    Adds the two conveniences the regret LPs need: free (sign-unrestricted)
    variables, handled by the classic [x = x+ - x-] split, and incremental
    model construction with named variables for debuggability. *)

type t
type var

type outcome =
  | Optimal of { objective : float; values : var -> float }
  | Infeasible
  | Unbounded

(** [create ()] is an empty model. *)
val create : unit -> t

(** [add_var t ~name] declares a non-negative variable. *)
val add_var : t -> name:string -> var

(** [add_free_var t ~name] declares a sign-unrestricted variable. *)
val add_free_var : t -> name:string -> var

(** [add_le t terms rhs] adds [sum (c * v) <= rhs]; [add_ge] and [add_eq]
    likewise. Terms may repeat a variable; coefficients accumulate. *)
val add_le : t -> (float * var) list -> float -> unit

val add_ge : t -> (float * var) list -> float -> unit
val add_eq : t -> (float * var) list -> float -> unit

(** [minimize t terms] / [maximize t terms] solve with the given linear
    objective. The model may be re-solved with different objectives. *)
val minimize : t -> (float * var) list -> outcome

val maximize : t -> (float * var) list -> outcome

(** [name t v] is the name [v] was declared with. *)
val name : t -> var -> string
