(** Global metric registry. Instrumented modules intern their metrics at
    module-initialization time:

    {[
      let c_pivots =
        Kregret_obs.Registry.counter "simplex.pivots"
          ~help:"simplex pivot operations"
    ]}

    Interning is idempotent (same name returns the same cell) and raises
    [Invalid_argument] if a name is reused with a different metric type.

    Snapshots report only {e touched} metrics — ones hit at least once while
    {!Control.enabled} was true. A fully disabled run therefore exports an
    empty registry regardless of how many metrics were interned. *)

val counter : ?help:string -> string -> Counter.t
val gauge : ?help:string -> string -> Gauge.t
val histogram : ?help:string -> ?buckets:float array -> string -> Histogram.t

val counters : unit -> (string * int) list
(** Name-sorted counters with non-zero merged values (zero-valued counters
    — including everything after a {!reset} — are omitted). *)

val gauges : unit -> (string * float) list
(** Name-sorted touched gauges. *)

val histograms : unit -> (string * Histogram.snapshot) list
(** Name-sorted touched histograms. *)

val reset : unit -> unit
(** Zero every metric and drop the span trees. Call outside parallel
    regions (typically between runs, or at the start of a [--metrics]
    session). *)
