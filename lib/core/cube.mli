(** The Cube baseline of Nanongkai et al. (VLDB 2010).

    The other algorithm of the paper that introduced k-regret queries: lay a
    [t^(d-1)] grid over the first [d-1] dimensions, and from every non-empty
    cell keep the point with the largest [d]-th coordinate; seed with the
    [d] dimension-boundary points. [t] is the largest integer with
    [d + t^(d-1) <= k]. Cube carries a provable regret bound that degrades
    with [d] but is much coarser than the greedy algorithms in practice —
    the benches include it to show the quality gap (it is fast but
    regret-hungry). *)

type result = {
  order : int list;  (** selected indices, boundary seeds first *)
  mrr : float;  (** maximum regret ratio over the candidate array *)
  t_grid : int;  (** grid resolution actually used *)
}

(** [run ~points ~k ()] — [k >= 1]; raises [Invalid_argument] on an empty
    candidate set. *)
val run : points:Kregret_geom.Vector.t array -> k:int -> unit -> result
