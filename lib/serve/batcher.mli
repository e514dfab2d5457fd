(** Single-flight request coalescing.

    When several connections ask for the same [(dataset, k, family)] at the
    same moment, only the first — the {e leader} — runs the StoredList
    prefix scan; the rest ({e followers}) block on the in-flight cell and
    receive the leader's result (or its exception) verbatim. One scan thus
    serves an arbitrary number of concurrent identical queries, which
    together with the LRU cache is the serving layer's answer to
    heavy-traffic fan-in: the cache de-duplicates across time, the batcher
    de-duplicates across concurrency.

    Thread-safe. Its counters live in {!Kregret_obs} only, per process:
    [serve.batch.leaders] and [serve.batch.followers], exact while
    recording is on. *)

type ('k, 'v) t

val create : unit -> ('k, 'v) t

(** [run t ~key f] — if no computation for [key] is in flight, runs [f]
    as the leader and returns [(value, false)]; otherwise waits for the
    in-flight leader and returns [(value, true)]. An exception raised by
    [f] is re-raised in the leader {e and} every follower. *)
val run : ('k, 'v) t -> key:'k -> (unit -> 'v) -> 'v * bool
