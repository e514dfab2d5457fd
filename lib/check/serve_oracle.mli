(** Differential check of the serving subsystem (lib/serve).

    Spins up an in-process server on a temp socket, loads the instance's
    points as a CSV dataset and drives a deterministic random interleaving
    of [query]/[mrr]/[rank_regret]/[evict]/[list] requests over the wire,
    asserting that every served answer is {e bit-identical} to an offline
    computation on the same points ({!Kregret.Stored_list} for
    [query]/[mrr], {!Kregret_rrr.Rrr} for [rank_regret]) — through the
    cache, through evictions, at every probed [k]. A protocol-abuse tail
    sends malformed frames and requires structured errors (known codes) on
    a connection that keeps serving.

    Then a seeded update stream on the dataset, replayed on an in-process
    {!Kregret.Dynamic}: dominated, skyline-moving and [bad_point]
    inserts, skyline, non-skyline and unknown-id deletes, and a flush —
    so both the updates the server applies in place and its repairs run,
    sent in pipelined bursts of 1–4 frames written before any reply is
    read. Every reply's [applied], [id], [epoch] and [live] must equal
    the replay's; a [query]/[mrr] read sent on the other connection while
    each burst is in flight must answer as some replayed state between
    the updates answered before it was sent and those sent before its
    reply; and the final [query]/[mrr]/[rank_regret] answers must be
    bit-identical to the replay's final state ([rank_regret] against an
    offline {!Kregret_rrr.Rrr} engine over its live rows).

    Failure check names: ["serve"] (wrong or failed answers) and
    ["serve-protocol"] (framing/robustness violations) — both registered in
    {!Oracle.check_names}, so corpus replays cover serving too. *)

(** [check inst] returns [(check, message)] pairs; [[]] means the serving
    path agrees with the offline computation. Runs the whole exchange
    against a private server instance; never raises (server teardown is
    guaranteed). *)
val check : Instance.t -> (string * string) list
