module Obs = Kregret_obs

let c_hits = Obs.Registry.counter "serve.cache.hits" ~help:"result-cache hits"

let c_misses =
  Obs.Registry.counter "serve.cache.misses" ~help:"result-cache misses"

let c_evictions =
  Obs.Registry.counter "serve.cache.evictions"
    ~help:"result-cache LRU evictions"

let c_insertions =
  Obs.Registry.counter "serve.cache.insertions"
    ~help:"result-cache insertions of new keys"

type ('k, 'v) node = {
  key : 'k;
  mutable value : 'v;
  (* [prev] is toward the front (MRU), [next] toward the back (LRU) *)
  mutable prev : ('k, 'v) node option;
  mutable next : ('k, 'v) node option;
}

type ('k, 'v) t = {
  cap : int;
  table : ('k, ('k, 'v) node) Hashtbl.t;
  mutable front : ('k, 'v) node option;
  mutable back : ('k, 'v) node option;
}

let create ~capacity =
  if capacity < 0 then invalid_arg "Lru.create: capacity must be >= 0";
  {
    cap = capacity;
    table = Hashtbl.create (max 8 capacity);
    front = None;
    back = None;
  }

let capacity t = t.cap
let length t = Hashtbl.length t.table

let unlink t node =
  (match node.prev with
  | Some p -> p.next <- node.next
  | None -> t.front <- node.next);
  (match node.next with
  | Some n -> n.prev <- node.prev
  | None -> t.back <- node.prev);
  node.prev <- None;
  node.next <- None

let push_front t node =
  node.prev <- None;
  node.next <- t.front;
  (match t.front with Some f -> f.prev <- Some node | None -> ());
  t.front <- Some node;
  match t.back with None -> t.back <- Some node | Some _ -> ()

let get t k =
  match Hashtbl.find_opt t.table k with
  | Some node ->
      Obs.Counter.incr c_hits;
      unlink t node;
      push_front t node;
      Some node.value
  | None ->
      Obs.Counter.incr c_misses;
      None

let evict_back t =
  match t.back with
  | None -> ()
  | Some node ->
      unlink t node;
      Hashtbl.remove t.table node.key;
      Obs.Counter.incr c_evictions

let put t k v =
  if t.cap > 0 then
    match Hashtbl.find_opt t.table k with
    | Some node ->
        node.value <- v;
        unlink t node;
        push_front t node
    | None ->
        let node = { key = k; value = v; prev = None; next = None } in
        Hashtbl.replace t.table k node;
        push_front t node;
        Obs.Counter.incr c_insertions;
        if Hashtbl.length t.table > t.cap then evict_back t

let mem t k = Hashtbl.mem t.table k

let remove t k =
  match Hashtbl.find_opt t.table k with
  | Some node ->
      unlink t node;
      Hashtbl.remove t.table k;
      true
  | None -> false

let keys_mru t =
  let rec walk acc node =
    match node with
    | None -> List.rev acc
    | Some n -> walk (n.key :: acc) n.next
  in
  walk [] t.front

let clear t =
  Hashtbl.reset t.table;
  t.front <- None;
  t.back <- None
