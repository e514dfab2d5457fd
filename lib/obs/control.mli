(** Global on/off switch and shared plumbing for the observability layer.

    Everything in [Kregret_obs] is disabled by default: with the switch off,
    every instrumentation call ([Counter.add], [Histogram.observe],
    [Span.with_]) is a single atomic load followed by an immediate return, no
    cells are materialized, and the exporters see an empty registry. This is
    the "compile-out-style" fast path: enabling observability is a runtime
    decision ([--metrics] / [--stats] on the binaries), not a build variant,
    but the disabled cost is negligible even inside the hot loops.

    The library calls only the stdlib and [Thread], so that every library
    layer can depend on it. The span clock defaults to [Sys.time] (processor
    time); binaries should install a wall clock with {!set_clock} at
    startup. *)

val enabled : unit -> bool
(** Whether instrumentation is recording. One atomic load. *)

val set_enabled : bool -> unit
(** Turn recording on or off. Toggle only outside parallel regions. *)

val locked : (unit -> 'a) -> 'a
(** Run a thunk under the registry mutex (shared by cell registration,
    metric interning and snapshots). Not reentrant. *)

val now : unit -> float
(** Current time in seconds from the installed clock. *)

val set_clock : (unit -> float) -> unit
(** Install the time source used by {!Span} timers and the pool's busy-time
    histogram (e.g. [Unix.gettimeofday] for wall-clock traces). *)

val monotonic_of : (unit -> float) -> unit -> float
(** [monotonic_of base] wraps a clock so its readings never decrease: a
    backwards step of [base] (NTP slew, a manual wall-clock reset) is held
    at the previous high-water mark until real time catches up again.
    Thread-safe; each wrapper keeps its own mark. Uptime counters and span
    ages should be computed against such a wrapper, never raw
    [Unix.gettimeofday] differences. *)
