(** Flat SoA storage for point and vertex sets: one contiguous unboxed
    [float array] holding an [n x d] matrix with row stride [d].

    The hot preprocessing loops (skyline dominance tests, happy-filter
    dots, the Dd slack sweep, GeoGreedy's champion re-scan) traffic in
    whole matrices of small rows; storing them boxed ([float array array])
    costs one pointer chase and one potential cache miss per row. A [Flat.t]
    keeps every row in one buffer so row-sequential sweeps stream linearly.

    {b Bit-identity contract.} Every kernel here accumulates strictly left
    to right in coordinate order — the exact operation order of the boxed
    {!Vector.dot} — and the argmax folds replace the incumbent only when
    [not (best >= x)], exactly like the boxed reference scans. Swapping a
    boxed loop for its flat equivalent therefore changes no result bit,
    NaN and signed-zero rows included (pinned by test/test_flat.ml). *)

type t

(** [create ~dim ()] is an empty matrix of row width [dim >= 1]. *)
val create : ?capacity:int -> dim:int -> unit -> t

(** [of_rows rows] copies boxed rows in. All rows must share one length;
    [?dim] is required when [rows] is empty. *)
val of_rows : ?dim:int -> float array array -> t

val dim : t -> int
val rows : t -> int

(** [push_row t r] appends a copy of [r]. Amortised O(d). *)
val push_row : t -> float array -> unit

(** [swap_remove t i] deletes row [i] by moving the last row into its
    place — O(d), order deterministic given the operation sequence. *)
val swap_remove : t -> int -> unit

(** [clear t] drops all rows, keeping the buffer. *)
val clear : t -> unit

val get : t -> int -> int -> float

(** [unsafe_get t i j] is [get t i j] without bounds checks — for kernel
    loops that validated the row range up front. *)
val unsafe_get : t -> int -> int -> float

(** [row t i] is a fresh boxed copy of row [i]. *)
val row : t -> int -> float array

(** [blit_row t i dst] copies row [i] into [dst] without allocating. *)
val blit_row : t -> int -> float array -> unit

val to_rows : t -> float array array

(** [dot t i q] is [Vector.dot (row t i) q], bit for bit, without the
    row allocation (4-wide unrolled single-accumulator chain). *)
val dot : t -> int -> float array -> float

(** [dot_rows a i b j] is [Vector.dot (row a i) (row b j)], bit for bit. *)
val dot_rows : t -> int -> t -> int -> float

(** [slacks t ~normal ~offset ~out] fills [out.(i) <- dot t i normal -.
    offset] for every row — the Dd constraint-classification sweep as one
    linear pass. [out] must have at least [rows t] slots. *)
val slacks : t -> normal:float array -> offset:float -> out:float array -> unit

(** [argmax_dot t q] is the row maximising [dot t i q] with its value;
    the earliest row wins exact ties and a NaN incumbent is always
    replaced — the same fold as the boxed reference scan. *)
val argmax_dot : t -> float array -> int * float

(** [for_all_dot_le t q bound] tests [dot t i q <= bound] for every row,
    with early exit. *)
val for_all_dot_le : t -> float array -> float -> bool

(** [champions ~vertices ~cands targets ~tlo ~thi ~out_row ~out_val]
    computes, for every candidate row [j = targets.(ti)] with
    [tlo <= ti < thi], the vertex row maximising
    [dot_rows vertices v cands j], writing the winning row index to
    [out_row.(j)] and its value to [out_val.(j)]. Returns the number of
    vertex tiles processed.

    The kernel is blocked: a tile of [?tile] vertex rows (default 32: 32
    rows of <= 16 doubles stay within 4 KB of L1) stays cache-hot while
    all targets stream against it, with the running best carried in
    the out slots — the fold order (row 0 initialises, later rows replace
    only when [not (best >= x)]) is identical to a single flat scan, so
    the result is bit-identical to {!argmax_dot} per candidate, ties and
    NaN included. Disjoint target ranges write disjoint out slots, so
    parallel callers can share the out arrays. *)
val champions :
  ?tile:int ->
  vertices:t ->
  cands:t ->
  int array ->
  tlo:int ->
  thi:int ->
  out_row:int array ->
  out_val:float array ->
  int
