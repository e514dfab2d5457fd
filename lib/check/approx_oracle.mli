(** Differential oracle for the ε-kernel approximation tier
    ({!Kregret_approx}).

    For one seeded {!Instance} it runs the approx pipeline and asserts
    only what is provable (a fuzzer run of 500 instances refutes
    anything weaker than a theorem):

    - [approx-kernel] — the kernel is a strictly ascending, in-range
      subset of the input and contains the maximum of {e every} net
      direction, each winner recomputed by an independent boxed
      first-wins scan (catching tie-rule breakage in the blocked flat
      kernel).
    - [approx-bound] — [mrr_D(S) <= min 1 (mrr_K(S) + slack)] for the
      approx selection [S] (the certificate the pipeline advertises;
      both sides by {!Kregret.Mrr.geometric}), its corollary
      [mrr(approx) - mrr(exact) <= certificate], the coreset property
      [mrr_D(kernel) <= slack], and 32 sampled directional probes of
      the same. Note [mrr(approx) - mrr(exact) <= slack] alone is {e
      not} a theorem — greedy-on-kernel and greedy-on-data may diverge —
      which is why the certificate includes the kernel-relative mrr.
    - [approx-monotone] — halving ε doubles the grid resolution exactly,
      the finer net's kernel contains the coarser one's, the advertised
      slack shrinks, and the coreset regret cannot grow (skipped at high
      d where the doubled net would blow the scan budget).
    - [approx-jobs] — the reduction (ids and per-direction winners) and
      the downstream pipeline are bit-identical at jobs 1, [jobs_hi],
      and an oversubscribed width past
      [Domain.recommended_domain_count ()] (exercising the pool's
      oversubscription cap).

    ε is chosen per dimension: the finest grid whose net stays within a
    ~1k-direction budget (never coarser than ε = 1 permits). *)

(** [check inst] — [(check-name, message)] per failed assertion; [[]]
    when the tier holds. Manages its own pool widths (callers must not
    wrap it in a parallel region). *)
val check : ?jobs_hi:int -> Instance.t -> (string * string) list
