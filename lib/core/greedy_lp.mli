(** The [Greedy] baseline of Nanongkai et al. (VLDB 2010) — the best-known
    algorithm the paper compares against.

    Same greedy skeleton as {!Geo_greedy} (seed with the [d] boundary
    points, repeatedly add the point contributing the maximum regret), but
    line 6 of Algorithm 1 — "find the point with the smallest critical
    ratio" — is answered by solving one linear program per remaining
    candidate per iteration ({!Kregret_lp.Regret_lp.critical_ratio}), the
    "time-consuming constrained programming" of the paper. Output is
    identical to GeoGreedy up to ties; cost is higher by the LP factor,
    which is what Figures 9, 10 and 13 measure. *)

type result = {
  order : int list;  (** selected indices in insertion order *)
  mrr : float;  (** maximum regret ratio over the candidate array *)
  iterations : int;
  lp_calls : int;  (** number of LPs solved — the cost driver *)
}

(** [run ~points ~k ()] — see {!Geo_greedy.run} for conventions ([k < d],
    early stop on [cr >= 1], etc.). *)
val run : points:Kregret_geom.Vector.t array -> k:int -> unit -> result
