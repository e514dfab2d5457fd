(** Differential oracle for the rank-regret query family
    ({!Kregret_rrr.Rrr}).

    For one seeded {!Instance} it builds the rank-regret engine and
    cross-checks it against independent brute-force evaluators:

    - [rrr-structure] — the candidate pool matches an independent naive
      skyline (rank-complete, unlike the happy funnel — see
      {!Kregret_rrr.Rrr.build}), the greedy order is a
      distinct in-range subset of the candidates, every certified
      interval satisfies [1 <= lo <= hi <= n] with [exact <=> lo = hi]
      (and [exact] always at [d <= 2]), [query] returns the greedy
      prefix with its stored bound, and [size_for] is the first prefix
      meeting its target.
    - [rrr-monotone] — the certified [lo] is non-increasing along greedy
      prefixes (an exact integer theorem; [hi] is {e not} monotone — the
      dual-polytope scan can loosen as the polytope gains facets).
    - [rrr-whole] — the whole skyline has max rank [lo = 1] (every
      preference's maximum score is attained on the skyline), and
      exactly 1 at [d <= 2]. The happy set is deliberately {e not}
      asserted rank 1: its eps-tolerant subjugation filter may drop a
      hull vertex that then wins a sliver of directions outright.
    - [rrr-2d] — at [d = 2] an independent arrangement evaluator (cell
      classification against the sorted crossing parameters — no sweep,
      no event batching) reproduces the engine's max rank {e exactly}
      on every checked prefix, and the reported witness direction
      attains the reported rank under tie-tolerant dot evaluation.
    - [rrr-witness] — at [d >= 3] the witness direction's rank,
      recomputed independently with {!Kregret_geom.Vector.dot}
      (bit-identical to the flat kernel's fold), equals [lo] exactly.
    - [rrr-net] — at [d >= 3] every net direction's independently
      recomputed rank is [<= lo] and the maximum attains [lo] (so [lo]
      really is the best realized rank on the net).
    - [rrr-greedy] — every candidate's rank under every net direction,
      recounted directly (a {!Kregret_geom.Vector.dot} score and a
      strictly-greater count, no sort), replays the greedy: each step's
      pick is the first minimizer of [max_j min(cur_j, rank_j(c))] over
      the untaken candidates, and off [d = 2] the running set rank's
      maximum equals the certified [lo]. The unselected candidates'
      ranks decide every pick, and only this check reads them.
    - [rrr-sample] — 32 random directions never exhibit a (tie-tolerant)
      rank above [hi]: the dual-polytope upper bound holds off the net.
    - [rrr-jobs] — order, every certified interval and every witness are
      bit-identical at jobs 1, [jobs_hi], and an oversubscribed width
      past [Domain.recommended_domain_count ()].
    - [rrr-serve] — a live server's [rank_regret] verb answers over the
      wire with the offline engine's exact bits, at [k = 1] and the
      instance's [k] (the second read reuses the publication's rank
      table).

    All dot-evaluated tie comparisons go through {!Tolerance.tie}; rank
    and witness comparisons are exact. *)

(** [check inst] — [(check-name, message)] per failed assertion; [[]]
    when the tier holds. Manages its own pool widths (callers must not
    wrap it in a parallel region). *)
val check : ?jobs_hi:int -> Instance.t -> (string * string) list
