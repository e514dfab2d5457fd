(** Scoped timers forming a trace tree.

    [with_ "query" f] opens a span around [f]; spans opened inside [f]
    become children. Repeated spans with the same name under the same parent
    aggregate (total seconds + hit count), so per-iteration spans stay O(1)
    in memory. The process keeps one tree, and each thread its own stack
    of open spans: a span's parent is the innermost span open on the same
    thread, never one another thread holds open, so a span opened on a
    pool worker or a server thread outside any span of its own is a root.
    Opening and closing a span take the registry mutex, and {!snapshot} is
    safe while other threads record.

    Timing uses {!Control.now} — install [Unix.gettimeofday] via
    {!Control.set_clock} for wall-clock trees (the default [Sys.time] is
    processor time). *)

type snapshot = {
  name : string;
  seconds : float;
  count : int;
  children : snapshot list;  (** sorted by name *)
}

val with_ : string -> (unit -> 'a) -> 'a
(** Run the thunk inside a span. Transparent (one atomic load) while
    {!Control.enabled} is false. Exceptions propagate; the span still
    closes. *)

val snapshot : unit -> snapshot list
(** The root-level spans, sorted by name. *)

val reset : unit -> unit
(** Drop all recorded spans. A span open across the reset, and the spans
    nested in it, close into nodes no snapshot shows. *)
