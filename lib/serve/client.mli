(** Client for the [kregret-serve/v1] protocol — used by the end-to-end
    tests, the fuzzer's serve oracle, and [kregret_serve --client].

    All operations are total ([result], never an exception) and bounded: a
    receive timeout (default 30 s) is set on the socket so a wedged server
    surfaces as an [Error], not a hang. Typed helpers interpret structured
    server errors; [query]/[mrr] transparently retry on [building] using
    the server's [retry_after] hint. *)

type t

(** [connect_to endpoint] connects to any {!Endpoint} (Unix or TCP) and
    verifies the hello frame carries {!Protocol.version}. *)
val connect_to : ?timeout:float -> Endpoint.t -> (t, string) result

(** [connect ~socket_path ()] — {!connect_to} on a Unix endpoint (the
    pre-TCP calling convention). *)
val connect : ?timeout:float -> socket_path:string -> unit -> (t, string) result

val close : t -> unit

(** {1 Raw frames} *)

(** [request_raw t line] sends one frame verbatim and returns the raw
    response line — malformed frames welcome (that is the point: the
    protocol tests drive the server's error paths through this). *)
val request_raw : t -> string -> (string, string) result

(** [request t line] — {!request_raw} + JSON-parse of the response. *)
val request : t -> string -> (Json.t, string) result

(** {1 Typed helpers}

    Server-side failures map to [Error "server error [CODE]: message"]. *)

val ping : t -> (Json.t, string) result

(** [load t ~name ~path] registers a dataset; [?approx] = ε in (0, 1]
    asks for the ε-kernel reduction (approximate answers with a certified
    additive bound; the dataset becomes static — updates answer
    [static_dataset]). Exact and approximate loads of the same file are
    distinct datasets and never share cached answers. *)
val load :
  ?approx:float ->
  t ->
  name:string ->
  path:string ->
  (Json.t, string) result
val list_datasets : t -> (Json.t, string) result
val stats : t -> (Json.t, string) result
val evict : t -> ?name:string -> unit -> (Json.t, string) result

(** [wait_ready t ~name] polls [list] until the dataset is [ready]
    ([Error] on [failed], on an unknown name, or after 600 polls, 20 ms
    apart). *)
val wait_ready : t -> name:string -> (unit, string) result

(** [query t ~name ~k] — the selection (original dataset row indices) and
    its mrr. Retries up to 200 times on [building], waiting the reply's
    [retry_after] (at most 0.25 s) between tries. *)
val query : t -> name:string -> k:int -> (int list * float, string) result

(** [query_json t ~name ~k] — one shot, full response document (to inspect
    [cached] / [coalesced] flags); no retry. *)
val query_json : t -> name:string -> k:int -> (Json.t, string) result

val mrr : t -> name:string -> k:int -> (float, string) result

(** [rank_regret t ~name ~k] — the rank-regret representative answer
    [(selection, rank_lo, rank_hi, exact)]: a [<= k]-subset (original
    dataset row indices, greedy order) whose max rank over every linear
    preference is certified to lie in [\[rank_lo, rank_hi\]] ([exact]
    when the interval is a point — always in d <= 2). Retries on
    [building] like {!query}. *)
val rank_regret :
  t -> name:string -> k:int -> (int list * int * int * bool, string) result

(** {1 Dynamic updates}

    Each blocks until the server has applied the op and republished a
    consistent snapshot (see {!Kregret.Dynamic}); all three retry on
    [building] like {!query}. *)

(** [insert t ~name ~point] — returns the new point's stable id. The point
    must be pre-normalized: finite coordinates in [(0, 1]], dataset
    dimension. *)
val insert : t -> name:string -> point:float array -> (int, string) result

(** [delete t ~name ~id] — [Ok true] when a live point was tombstoned,
    [Ok false] for an unknown or already-deleted id (an exact no-op). *)
val delete : t -> name:string -> id:int -> (bool, string) result

(** [flush t ~name] — compact tombstoned slots now; returns the number of
    slots reclaimed. External ids are stable across flushes. *)
val flush : t -> name:string -> (int, string) result
