(** Bounded LRU result cache.

    A classic hash-table + intrusive doubly-linked-list LRU: [get] and
    [put] are O(1), the most recently used entry sits at the front, and an
    insertion that would exceed [capacity] evicts the back (least recently
    used) entry. [capacity = 0] disables storage entirely — every [get]
    misses and [put] is a no-op — which is the "cache off" serving knob.

    The structure is {e not} thread-safe; the server serializes access with
    its own mutex. Its counters live in {!Kregret_obs} only, per process:
    [serve.cache.hits], [serve.cache.misses], [serve.cache.evictions] and
    [serve.cache.insertions] (new keys; updates of a live key excluded),
    exact while recording is on (asserted against an executable model by
    [test/test_lru.ml]). The server's [stats] reply and its [--metrics]
    file carry them. *)

type ('k, 'v) t

(** [create ~capacity] — empty cache. Raises [Invalid_argument] when
    [capacity < 0]. *)
val create : capacity:int -> ('k, 'v) t

val capacity : ('k, 'v) t -> int
val length : ('k, 'v) t -> int

(** [get t k] returns the cached value and promotes [k] to most recently
    used; counts a hit or a miss. *)
val get : ('k, 'v) t -> 'k -> 'v option

(** [put t k v] inserts or updates [k] at the front, evicting the least
    recently used entry when the capacity would be exceeded. *)
val put : ('k, 'v) t -> 'k -> 'v -> unit

(** [mem t k] — presence test; does {e not} promote and counts nothing
    (for assertions). *)
val mem : ('k, 'v) t -> 'k -> bool

(** [remove t k] drops an entry (not counted as an eviction); [false] when
    absent. *)
val remove : ('k, 'v) t -> 'k -> bool

(** [keys_mru t] — every key, most recently used first. O(n); for tests
    and targeted invalidation sweeps. *)
val keys_mru : ('k, 'v) t -> 'k list

(** [clear t] drops every entry (not counted as evictions). *)
val clear : ('k, 'v) t -> unit
