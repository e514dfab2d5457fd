(** Small dense matrices: construction and numerical rank.

    [Stats] builds its covariance and correlation matrices here, and [Dd]'s
    adjacency and invariant checks ask for the rank of a matrix of at most
    [d] rows and columns. A plain row-array representation with partial
    pivoting is adequate at those sizes and easy to audit. Matrices are
    arrays of rows. *)

type t = float array array

(** [make rows cols x] is a [rows * cols] matrix filled with [x]. *)
val make : int -> int -> float -> t

(** [init rows cols f] has entry [f i j] at row [i], column [j]. *)
val init : int -> int -> (int -> int -> float) -> t

(** [rank ?eps m] is the numerical rank of [m], computed by row elimination
    with partial pivoting and threshold [eps] (default [1e-9]). [m] is not
    modified. *)
val rank : ?eps:float -> t -> int
