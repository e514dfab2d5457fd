(** The differential oracle: every independent way this repository can
    compute (or bound) the same k-regret quantities, cross-checked on one
    instance.

    Per instance the oracle verifies (names in brackets are the stable
    check identifiers used in corpus metadata and by the shrinker):

    - [skyline-agree] — naive O(n²) skyline = SFS skyline, index for index;
    - [happy-agree] — the happy screen = the skyline filtered by the boxed
      {!Kregret_happy.Happy.is_happy} reference (no certificate, no probe
      order), index for index;
    - [lemma3-inclusion] — [D_conv ⊆ D_happy ⊆ D_sky];
    - [selection-valid] — GeoGreedy/Greedy orders are in-range, distinct,
      of size ≤ k;
    - [geo-vs-greedy-mrr] — GeoGreedy mrr = LP-Greedy mrr (tie-tolerant;
      Lemma 1 says they are the same algorithm);
    - [stored-prefix] — StoredList's answer at [k] (and at [k/2], against a
      fresh GeoGreedy run) is exactly the greedy prefix, with matching mrr;
    - [lazy-funnel] — {!Kregret.Stored_list.funnel}, which certifies
      only the happy points GeoGreedy reaches, materializes the list of
      the eager composition (the whole happy screen, then StoredList over
      the happy rows): same input rows, every mrr bit, at pool widths 1
      and [jobs_hi];
    - [mrr-monotone-k] — materialized mrr is non-increasing in [k];
    - [evaluators-agree] — [Mrr.geometric] = [Mrr.lp] on the final
      selection over the full data;
    - [sampled-bound] — Monte-Carlo mrr never exceeds the exact value;
    - [mrr-in-unit] — every reported ratio lies in [0, 1];
    - [optimal2d] — at [d = 2] the exact DP never loses to either greedy,
      and its reported optimum is achieved by its reported selection;
    - [jobs-invariance] — skyline, happy set, GeoGreedy trajectory and the
      Monte-Carlo estimate are bit-identical at pool widths 1, [jobs_hi]
      and an oversubscribed width past
      [Domain.recommended_domain_count ()] (driving the pool's
      oversubscription cap end to end);
    - [serve] / [serve-protocol] — an in-process query server loaded with
      the instance answers every wire request bit-identically to the
      offline StoredList, and survives malformed frames with structured
      errors (see {!Serve_oracle});
    - [dynamic] — a fuzzed insert/delete/query/mrr/flush interleaving on
      {!Kregret.Dynamic} answers bit-identically to rebuilding the static
      pipeline from scratch after every mutation, at pool widths
      [{1, 2, 4, jobs_hi}] (see {!Dynamic_oracle});
    - [approx-kernel] / [approx-bound] / [approx-monotone] /
      [approx-jobs] — the ε-kernel approximation tier: kernel structure
      and per-direction maxima, the certified regret bound,
      ε-monotonicity and pool-width bit-identity (see {!Approx_oracle});
    - [rrr-structure] / [rrr-monotone] / [rrr-whole] / [rrr-2d] /
      [rrr-witness] / [rrr-net] / [rrr-sample] / [rrr-jobs] /
      [rrr-greedy] / [rrr-serve] — the rank-regret query family:
      candidate funnel and certified-interval structure, lo
      monotonicity, an independent cell-by-cell d = 2 arrangement
      evaluator, witness/net re-evaluation, sampled upper-bound probes,
      pool-width bit-identity, a replay of every greedy pick from
      directly recounted ranks, and wire parity of the [rank_regret]
      verb (see {!Rrr_oracle});
    - [exception] — no component raised.

    All tie comparisons go through {!Tolerance.tie}. *)

(** Which checks to run: the full battery, or only the
    dynamic-maintenance, approximation, or rank-regret oracles (the
    [--check dynamic] / [--check approx] / [--check rrr] fast paths of
    [kregret_fuzz]). *)
type suite = All | Dynamic_only | Approx_only | Rrr_only

type config = {
  samples : int;  (** Monte-Carlo budget for the sampled-bound check *)
  jobs_hi : int;
      (** second pool width for [jobs-invariance]; [<= 1] disables it *)
  suite : suite;
}

val default : config

type failure = { check : string; message : string }

val pp_failure : Format.formatter -> failure -> unit

(** [check ?config inst] runs every applicable check; [[]] means the
    instance passes. Exceptions from components are captured as
    [exception] failures, never propagated. *)
val check : ?config:config -> Instance.t -> failure list

(** The stable check identifiers, for documentation and corpus metadata. *)
val check_names : string list
