(** Random problem instances for the differential fuzzer.

    An instance is a normalized candidate set in [(0,1]^d] plus a query
    size [k], tagged with enough provenance (campaign seed, stream
    position, distribution, applied degeneracies) to regenerate or explain
    it. Generation is fully deterministic: the campaign master {!Rng.t} is
    [Rng.split] once per instance, so instance [i] of campaign seed [s] is
    the same bit-for-bit on every machine and pool width. *)

type t = {
  id : int;  (** position in the campaign's instance stream *)
  seed : int;  (** campaign master seed *)
  dist : string;  (** generating distribution *)
  degeneracies : string list;
      (** degenerate transforms applied after generation, in order *)
  k : int;  (** query size (may exceed [n] to probe clamping) *)
  points : Kregret_geom.Vector.t array;  (** normalized candidate set *)
}

val n : t -> int
val d : t -> int

(** [generate ~seed ~id master] draws the next instance from the campaign
    stream: splits [master], then samples [d ∈ 2..7], [n ∈ 1..400] (biased
    toward small instances), [k ∈ 1..10], a distribution
    (uniform/correlated/anti-correlated), and 0–4 degenerate transforms
    (duplicate points, coarse-grid snapping, collinear fills, axis-aligned
    ties). The result is re-normalized. *)
val generate : seed:int -> id:int -> Kregret_dataset.Rng.t -> t

(** A deterministic per-instance generator (for the sampled-mrr check),
    derived from [(seed, id)] only. *)
val rng : t -> Kregret_dataset.Rng.t

val to_dataset : t -> Kregret_dataset.Dataset.t

(** [with_points t pts] / [with_k t k] — shrinker edits; [with_points]
    re-normalizes so the instance invariant ([(0,1]^d], every dimension
    touching 1) is preserved. *)
val with_points : t -> Kregret_geom.Vector.t array -> t

val with_k : t -> int -> t

(** [drop_dim t i] removes coordinate [i] from every point (shrinker);
    requires [d t > 2]. *)
val drop_dim : t -> int -> t

(** One-line description: id, dist, n, d, k, degeneracies. *)
val describe : t -> string
