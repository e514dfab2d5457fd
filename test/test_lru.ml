(* Property tests for the serving result cache (lib/serve/lru.ml).

   Strategy: drive the real LRU and a tiny obviously-correct executable
   model (an MRU-ordered association list) with the same random operation
   sequence, comparing observable state after every step — returned values,
   length, MRU key order, and the exact hit/miss/eviction/insertion
   counters, which live in Kregret_obs as [serve.cache.*].

   Plus the serving-specific determinism property: a cache hit is
   bit-identical to a cold compute at any pool width (KREGRET_JOBS in
   {1,2,4}). *)

module Lru = Kregret_serve.Lru
module Obs = Kregret_obs
module Pool = Kregret_parallel.Pool
module Stored_list = Kregret.Stored_list
module Skyline = Kregret_skyline.Skyline
module Happy = Kregret_happy.Happy

(* ---- the executable model ------------------------------------------------ *)

module Model = struct
  type t = {
    capacity : int;
    mutable entries : (int * int) list;  (* MRU first *)
    mutable hits : int;
    mutable misses : int;
    mutable evictions : int;
    mutable insertions : int;
  }

  let create capacity =
    { capacity; entries = []; hits = 0; misses = 0; evictions = 0;
      insertions = 0 }

  let get m k =
    match List.assoc_opt k m.entries with
    | Some v ->
        m.hits <- m.hits + 1;
        m.entries <- (k, v) :: List.remove_assoc k m.entries;
        Some v
    | None ->
        m.misses <- m.misses + 1;
        None

  let put m k v =
    if m.capacity > 0 then
      if List.mem_assoc k m.entries then
        m.entries <- (k, v) :: List.remove_assoc k m.entries
      else begin
        m.insertions <- m.insertions + 1;
        m.entries <- (k, v) :: m.entries;
        if List.length m.entries > m.capacity then begin
          m.evictions <- m.evictions + 1;
          m.entries <-
            List.filteri (fun i _ -> i < m.capacity) m.entries
        end
      end

  let remove m k =
    let present = List.mem_assoc k m.entries in
    m.entries <- List.remove_assoc k m.entries;
    present

  let keys m = List.map fst m.entries
end

(* ---- the cache's counters ------------------------------------------------ *)

(* the cells [Lru] interned, by name; each scenario reads them inside
   [Testutil.recording] *)
let hits, misses, evictions, insertions =
  let c name = Obs.Registry.counter ("serve.cache." ^ name) in
  (c "hits", c "misses", c "evictions", c "insertions")

let count = Obs.Counter.value

(* ---- operation sequences -------------------------------------------------- *)

type op = Put of int * int | Get of int | Remove of int | Clear

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (5, map2 (fun k v -> Put (k, v)) (int_range 0 7) (int_range 0 99));
        (5, map (fun k -> Get k) (int_range 0 7));
        (1, map (fun k -> Remove k) (int_range 0 7));
        (1, return Clear);
      ])

let pp_op = function
  | Put (k, v) -> Printf.sprintf "Put(%d,%d)" k v
  | Get k -> Printf.sprintf "Get %d" k
  | Remove k -> Printf.sprintf "Remove %d" k
  | Clear -> "Clear"

let scenario_arb =
  QCheck.make
    ~print:(fun (cap, ops) ->
      Printf.sprintf "cap=%d [%s]" cap
        (String.concat "; " (List.map pp_op ops)))
    QCheck.Gen.(
      pair (int_range 0 5) (list_size (int_range 1 60) op_gen))

let agrees_with_model (cap, ops) =
  Testutil.recording @@ fun () ->
  let real = Lru.create ~capacity:cap in
  let model = Model.create cap in
  List.for_all
    (fun op ->
      (match op with
      | Put (k, v) ->
          Lru.put real k v;
          Model.put model k v
      | Get k ->
          let a = Lru.get real k in
          let b = Model.get model k in
          if a <> b then
            QCheck.Test.fail_reportf "get %d: real %s, model %s" k
              (match a with Some v -> string_of_int v | None -> "None")
              (match b with Some v -> string_of_int v | None -> "None")
      | Remove k ->
          let a = Lru.remove real k in
          let b = Model.remove model k in
          if a <> b then
            QCheck.Test.fail_reportf "remove %d: real %b, model %b" k a b
      | Clear ->
          Lru.clear real;
          model.Model.entries <- []);
      if Lru.length real <> List.length model.Model.entries then
        QCheck.Test.fail_reportf "after %s: length %d, model %d" (pp_op op)
          (Lru.length real)
          (List.length model.Model.entries);
      if Lru.keys_mru real <> Model.keys model then
        QCheck.Test.fail_reportf "after %s: MRU order [%s], model [%s]"
          (pp_op op)
          (String.concat ";" (List.map string_of_int (Lru.keys_mru real)))
          (String.concat ";" (List.map string_of_int (Model.keys model)));
      if
        (count hits, count misses, count evictions, count insertions)
        <> ( model.Model.hits, model.Model.misses, model.Model.evictions,
             model.Model.insertions )
      then
        QCheck.Test.fail_reportf
          "after %s: serve.cache.* h%d m%d e%d i%d, model h%d m%d e%d i%d"
          (pp_op op) (count hits) (count misses) (count evictions)
          (count insertions) model.Model.hits model.Model.misses
          model.Model.evictions model.Model.insertions;
      true)
    ops

let never_exceeds_capacity (cap, ops) =
  let real = Lru.create ~capacity:cap in
  List.for_all
    (fun op ->
      (match op with
      | Put (k, v) -> Lru.put real k v
      | Get k -> ignore (Lru.get real k)
      | Remove k -> ignore (Lru.remove real k)
      | Clear -> Lru.clear real);
      Lru.length real <= cap)
    ops

(* conservation: every key ever inserted is live, evicted, or removed *)
let counters_conserve (cap, ops) =
  Testutil.recording @@ fun () ->
  let real = Lru.create ~capacity:cap in
  let removed = ref 0 and cleared = ref 0 in
  List.iter
    (fun op ->
      match op with
      | Put (k, v) -> Lru.put real k v
      | Get k -> ignore (Lru.get real k)
      | Remove k -> if Lru.remove real k then incr removed
      | Clear ->
          cleared := !cleared + Lru.length real;
          Lru.clear real)
    ops;
  count insertions = Lru.length real + count evictions + !removed + !cleared

(* ---- unit edges ----------------------------------------------------------- *)

let test_capacity_zero () =
  Testutil.recording @@ fun () ->
  let c = Lru.create ~capacity:0 in
  Lru.put c 1 10;
  Alcotest.(check (option int)) "disabled cache misses" None (Lru.get c 1);
  Alcotest.(check int) "disabled cache stays empty" 0 (Lru.length c);
  Alcotest.(check int) "no insertions" 0 (count insertions);
  Alcotest.(check int) "one miss" 1 (count misses);
  Alcotest.check_raises "negative capacity"
    (Invalid_argument "Lru.create: capacity must be >= 0") (fun () ->
      ignore (Lru.create ~capacity:(-1)))

let test_eviction_order () =
  Testutil.recording @@ fun () ->
  let c = Lru.create ~capacity:3 in
  Lru.put c 1 1;
  Lru.put c 2 2;
  Lru.put c 3 3;
  ignore (Lru.get c 1);  (* 1 is now MRU: [1;3;2] *)
  Lru.put c 4 4;  (* evicts 2 *)
  Alcotest.(check (list int)) "MRU order" [ 4; 1; 3 ] (Lru.keys_mru c);
  Alcotest.(check bool) "2 evicted" false (Lru.mem c 2);
  Alcotest.(check int) "one eviction" 1 (count evictions)

(* ---- cache hits are bit-identical across pool widths ---------------------- *)

let test_jobs_invariant_hits () =
  let st = Testutil.test_rng 61 in
  let points = Array.init 90 (fun _ -> Testutil.random_point st 3) in
  let pipeline () =
    let sky_idx = Skyline.sfs points in
    let sky = Array.map (fun i -> points.(i)) sky_idx in
    let happy_idx = Happy.happy_points sky in
    let happy = Array.map (fun i -> sky.(i)) happy_idx in
    let stored = Stored_list.preprocess happy in
    let k = min 5 (Stored_list.length stored) in
    (Stored_list.query stored ~k, Stored_list.mrr_at stored ~k)
  in
  let saved = Pool.get_jobs () in
  Fun.protect
    ~finally:(fun () -> Pool.set_jobs saved)
    (fun () ->
      let cache = Lru.create ~capacity:8 in
      (* cold compute at width 1 populates the cache *)
      Pool.set_jobs 1;
      let cold = pipeline () in
      Lru.put cache "answer" cold;
      List.iter
        (fun jobs ->
          Pool.set_jobs jobs;
          let fresh = pipeline () in
          let hit =
            match Lru.get cache "answer" with
            | Some v -> v
            | None -> Alcotest.fail "cache lost the answer"
          in
          let (sel_f, mrr_f), (sel_h, mrr_h) = (fresh, hit) in
          Alcotest.(check (list int))
            (Printf.sprintf "selection: hit == cold compute at jobs=%d" jobs)
            sel_f sel_h;
          Alcotest.(check bool)
            (Printf.sprintf "mrr bits: hit == cold compute at jobs=%d" jobs)
            true
            (Int64.equal (Int64.bits_of_float mrr_f) (Int64.bits_of_float mrr_h)))
        [ 1; 2; 4 ])

let suite =
  [
    Testutil.qcheck_case ~count:300 "LRU agrees with the executable model"
      scenario_arb agrees_with_model;
    Testutil.qcheck_case ~count:300 "capacity is never exceeded" scenario_arb
      never_exceeds_capacity;
    Testutil.qcheck_case ~count:300
      "insertions = live + evicted + removed + cleared" scenario_arb
      counters_conserve;
    Alcotest.test_case "capacity 0 disables the cache" `Quick test_capacity_zero;
    Alcotest.test_case "eviction follows recency" `Quick test_eviction_order;
    Alcotest.test_case "cache hits bit-identical across KREGRET_JOBS {1,2,4}"
      `Quick test_jobs_invariant_hits;
  ]
