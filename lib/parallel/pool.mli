(** Fixed-size domain pool for the library's embarrassingly parallel hot
    loops (skyline pre-filter, happy-point subjugation tests, GeoGreedy
    champion scans, Greedy's per-candidate LPs, Monte-Carlo regret
    sampling).

    Built on stdlib [Domain] / [Mutex] / [Condition] / [Atomic] only —
    no domainslib. OCaml 5's runtime gives us shared-memory domains; this
    module adds the three things the algorithms need on top:

    {ol
    {- a {e persistent} pool (domains are expensive to spawn, the hot
       loops fire thousands of small regions per query);}
    {- a {e determinism contract}: chunk boundaries depend only on the
       index range and [chunk_size] — never on the number of domains —
       and [map_reduce] folds the per-chunk results strictly left to
       right. A caller whose chunk results depend only on the chunk's own
       input range therefore gets bit-identical output for every
       [jobs] value, floating point included;}
    {- sequential fallback: with [jobs = 1] everything runs inline on the
       calling domain, no pool machinery involved.}}

    {b Concurrency rules.} Parallel regions must not nest: calling
    [parallel_for] / [map_reduce] from inside a running region (from a
    body on a worker domain, or from the thread that opened the region)
    raises [Invalid_argument] (with [jobs = 1] the inline path permits
    it, since it is just a nested loop). A region opened from another
    thread while one runs is not nesting: it waits for the running region
    to finish, then runs with its usual result. Bodies may read shared
    structures freely and write only to disjoint locations; the pool
    establishes the happens-before edges so the caller observes all
    writes when the region returns. Exceptions raised by a body are
    caught, the region drains, and the first exception is re-raised in
    the caller. *)

type t
(** A pool of [jobs - 1] worker domains plus the calling domain. *)

val create : jobs:int -> t
(** [create ~jobs] spawns up to [jobs - 1] worker domains ([jobs >= 1]),
    capped so workers + caller never exceed
    [Domain.recommended_domain_count ()] — oversubscribing physical cores
    buys no throughput and pays cross-domain minor-GC synchronisation.
    The cap affects scheduling only; results are identical to an uncapped
    pool (see the determinism contract). [jobs = 1] creates a trivial
    pool that runs everything inline. *)

val shutdown : t -> unit
(** Stop and join the worker domains. Idempotent. Using the pool after
    shutdown raises [Invalid_argument]. *)

(** {1 Global pool}

    Most callers never construct a pool: the library keeps one global
    pool sized (in priority order) from [set_jobs] (the [--jobs] CLI
    flag), the [KREGRET_JOBS] environment variable, or
    [Domain.recommended_domain_count ()]. The global pool is created
    lazily on first use and transparently rebuilt when the requested
    size changes. *)

val set_jobs : int -> unit
(** Request a global pool width (takes precedence over [KREGRET_JOBS]).
    Raises [Invalid_argument] on [jobs < 1]. *)

val get_jobs : unit -> int
(** The width the global pool has (or would be created with). *)

val get : unit -> t
(** The global pool, created or resized on demand. *)

(** {1 Parallel iteration} *)

val parallel_for :
  ?pool:t ->
  ?chunk_size:int ->
  ?cost:float ->
  lo:int ->
  hi:int ->
  (int -> unit) ->
  unit
(** [parallel_for ~lo ~hi body] runs [body i] for every [lo <= i < hi],
    split into chunks executed by the pool (the global one unless [?pool]
    is given). Within a chunk indices run in increasing order; chunks may
    run in any order, concurrently. [body] must only write to locations
    owned by index [i].

    [?cost] is the caller's estimate of the work per index in ~nanoseconds
    (default 1000, i.e. ~1 us of work per index); it drives {!chunk_plan}
    and affects only scheduling granularity, never results — the plan is a
    pure function of the range and the hint, independent of the pool
    width. *)

val map_reduce :
  ?pool:t ->
  ?chunk_size:int ->
  ?cost:float ->
  lo:int ->
  hi:int ->
  map:(int -> int -> 'a) ->
  reduce:('a -> 'a -> 'a) ->
  'a ->
  'a
(** [map_reduce ~lo ~hi ~map ~reduce init] applies [map a b] to each
    chunk subrange [\[a, b)] of [\[lo, hi)] in parallel, then folds the
    chunk results {e sequentially, left to right}:
    [reduce (... (reduce init r0) ...) r_last] where [r_i] is the result
    of the i-th chunk in index order. Chunk boundaries depend only on
    [hi - lo], [chunk_size] and the [cost] hint, so the value is
    independent of the pool width even for non-associative [reduce]
    (floating-point sums, first-wins argmax ties, list concatenation). *)

val chunk_plan : ?chunk_size:int -> ?cost:float -> n:int -> unit -> int
(** [chunk_plan ~n ()] is the chunk size a region of [n] indices uses: an
    explicit [?chunk_size] verbatim; otherwise [n] itself (one inline
    chunk) when the estimated total work [n * cost] is under the ~50 us
    inline cutoff, else the largest of [ceil (n / 64)] and however many
    indices it takes to give each chunk ~200 us of estimated work. A pure
    function of its arguments — never of the pool width. Raises
    [Invalid_argument] on [n < 1] or [chunk_size < 1]. *)

val default_chunk_size : n:int -> int
(** [max 1 (n / 64)] rounded up — the at-most-64-chunks cap that bounds
    {!chunk_plan} from below on large ranges. *)
