(** The dynamic-maintenance oracle: fuzzed insert/delete/query/mrr/flush
    interleavings against a rebuild-from-scratch pipeline.

    Per instance, a deterministic update trace (a pure function of the
    instance's seed and id, biased toward duplicate inserts, dominated
    points and deletions inside the current answer) is executed against
    {!Kregret.Dynamic}, and after every mutation the structure's full
    answer — stored-list ids, every prefix regret, skyline/happy sizes,
    live count — is compared {e bit-for-bit} against running the static
    pipeline (naive skyline, happy screen, stored-list preprocessing) on
    the live points, and its published {!Kregret.Snapshot} must carry the
    same answer, the live ids and points as its basis and the naive
    skyline of that basis as its candidates. Every op publishes a
    snapshot, and at the end of the trace each of them must still answer
    — order, prefix regrets, basis, candidates — the bits it answered
    when it was made, whatever updates, flushes and growth came after.
    The whole trace is repeated at pool widths
    [{1, 2, 4, jobs_hi}] ([1] only when [jobs_hi <= 1]) and the per-op
    answer streams must be identical across widths.

    Reading [happy_size] completes the lazy build's happy screen, so the
    runs above screen right after the first compared op. One more run, at
    width 1, reads it only after the last op: its updates run on a
    {!Kregret.Dynamic} whose screen is not yet complete, and it must pass
    every other comparison and answer the same stream.

    On failure the trace is ddmin-minimized ({!Shrink.trace}) and the
    report leads with the minimal failing op list. *)

(** [check inst] returns [(check, message)] failure pairs — [[]] when the
    instance passes. The check identifier is always ["dynamic"]. *)
val check : ?jobs_hi:int -> Instance.t -> (string * string) list
