(** The offline approximate pipeline: ε-kernel reduction ({!Kernel}),
    then {!Kregret.Stored_list.funnel} (skyline → happy → StoredList)
    over the kernel rows only. This is the reference composition that the
    CLI, the bench driver and the serve tier (via
    {!Kregret_serve.Shard.create} with [approx]) all reproduce bit for
    bit — [Kregret_check.Approx_oracle] pins the equivalences. *)

type t = {
  reduction : Kernel.result;
  order : int array;
      (** the materialized GeoGreedy order as original row ids; empty when
          the happy screen returned nothing (degenerate inputs) *)
  mrr : float array;
      (** [mrr.(i)] — the kernel-relative regret of the [(i + 1)]-prefix *)
}

(** [run ~eps points] — reduce, then run the funnel over the kernel.
    [?max_length] caps the StoredList materialization exactly as in
    {!Kregret.Stored_list.preprocess}. *)
val run :
  ?max_directions:int ->
  ?max_length:int ->
  eps:float ->
  Kregret_geom.Vector.t array ->
  t

(** [query t ~k] — first [min k (length)] original ids of the order,
    with the reported mrr of that prefix {e within the kernel}. *)
val query : t -> k:int -> int list * float

(** [mrr_at t ~k] — the stored (kernel-relative) mrr of the size-[k]
    prefix; [0.] when nothing is stored (matching
    {!Kregret.Snapshot.query} on an empty list). *)
val mrr_at : t -> k:int -> float

val stored_length : t -> int

(** [certified_bound t ~k] — [min 1 (mrr_at t ~k + slack)]: a true upper
    bound on the selection's mrr over the {e full} input, by the net
    covering argument (see {!Kernel}). *)
val certified_bound : t -> k:int -> float
