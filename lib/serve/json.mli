(** Minimal JSON values for the wire protocol.

    The serving protocol ({!Protocol}) frames every request and response as
    one JSON object per line. The repository policy is "no new external
    dependencies", so this is a small, total JSON reader/writer of our own:
    a recursive-descent parser over a string (no streaming — frames are
    line-bounded anyway) and an emitter whose float formatting ([%.17g])
    round-trips [float]s bit-exactly through [float_of_string]. That exact
    round-trip is load-bearing: the end-to-end tests assert that a served
    [mrr] is {e bit-identical} to the direct {!Kregret.Stored_list} read. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(** [parse s] parses one JSON document; trailing garbage after the document
    is an error. Never raises. *)
val parse : string -> (t, string) result

(** [to_string v] emits a single-line document. Integral floats print as
    integers; other finite floats as [%.17g] (bit-exact round-trip);
    non-finite floats as [null]. *)
val to_string : t -> string

(** {1 Accessors} — total; [None] on shape mismatch. *)

val member : string -> t -> t option
val to_str : t -> string option
val to_float : t -> float option

(** [to_int] accepts only integral numbers representable as [int]. *)
val to_int : t -> int option

val to_bool : t -> bool option
val to_list : t -> t list option

(** {1 Constructors} *)

val int : int -> t
