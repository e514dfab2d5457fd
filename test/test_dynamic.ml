(* Dynamic-update coverage (the dynamic-datasets PR): inserts and deletes
   must leave [Kregret.Dynamic] bit-identical to rebuilding the whole
   pipeline (naive skyline -> happy screen -> StoredList) from the live
   points — the contract the fuzz oracle (Kregret_check.Dynamic_oracle)
   enforces at scale. This suite pins the named degenerate cases and the
   round-trip/flush identities deterministically, and runs the oracle on a
   few fixed instances across pool widths {1,2,4}. *)

module Vector = Kregret_geom.Vector
module Rng = Kregret_dataset.Rng
module Generator = Kregret_dataset.Generator
module Dataset = Kregret_dataset.Dataset
module Skyline = Kregret_skyline.Skyline
module Happy = Kregret_happy.Happy
module Stored_list = Kregret.Stored_list
module Dynamic = Kregret.Dynamic
module Snapshot = Kregret.Snapshot
module Pool = Kregret_parallel.Pool
module Instance = Kregret_check.Instance
module Dynamic_oracle = Kregret_check.Dynamic_oracle

let points_of ~n ~d ~seed =
  (Dataset.normalize (Generator.anti_correlated (Rng.create seed) ~n ~d))
    .Dataset.points

(* the full answer as comparable bits: stored order as external ids plus
   the mrr of every prefix *)
let answer_bits dyn =
  let len = Dynamic.stored_length dyn in
  let ids = if len = 0 then [] else fst (Dynamic.query dyn ~k:len) in
  (ids, List.init len (fun i -> Int64.bits_of_float (Dynamic.mrr_at dyn ~k:(i + 1))))

(* rebuild-from-scratch expectation over the live points (the snapshot's
   basis), in external ids *)
let rebuild_bits dyn =
  let b = (Dynamic.snapshot dyn).Snapshot.basis () in
  let vecs = b.Snapshot.rows in
  if Array.length vecs = 0 then ([], [])
  else begin
    let sky_idx = Skyline.naive vecs in
    let sky = Array.map (fun i -> vecs.(i)) sky_idx in
    let happy_idx = Happy.happy_points sky in
    if Array.length happy_idx = 0 then ([], [])
    else begin
      let happy = Array.map (fun i -> sky.(i)) happy_idx in
      let stored = Stored_list.preprocess happy in
      let len = Stored_list.length stored in
      ( List.map
          (fun e -> b.Snapshot.ids.(sky_idx.(happy_idx.(e))))
          (Stored_list.order stored),
        List.init len (fun i ->
            Int64.bits_of_float (Stored_list.mrr_at stored ~k:(i + 1))) )
    end
  end

let check_matches_rebuild msg dyn =
  let got_ids, got_mrr = answer_bits dyn in
  let want_ids, want_mrr = rebuild_bits dyn in
  Alcotest.(check (list int)) (msg ^ ": ids match rebuild") want_ids got_ids;
  Alcotest.(check (list int64)) (msg ^ ": mrr bits match rebuild") want_mrr got_mrr;
  let b = (Dynamic.snapshot dyn).Snapshot.basis () in
  Alcotest.(check (array int)) (msg ^ ": candidates are the basis skyline")
    (Skyline.naive b.Snapshot.rows) b.Snapshot.candidates

let test_insert_delete_round_trip () =
  let points = points_of ~n:40 ~d:3 ~seed:11 in
  let dyn = Dynamic.create points in
  let before = answer_bits dyn in
  let st = Random.State.make [| 2014; 7 |] in
  (* a mix of fresh, duplicate and boundary points *)
  let extras =
    List.init 12 (fun i ->
        if i mod 3 = 0 then Vector.copy points.(Random.State.int st 40)
        else
          Array.init 3 (fun _ -> 0.05 +. Random.State.float st 0.95))
  in
  let ids = List.map (fun p -> Dynamic.insert dyn p) extras in
  List.iter
    (fun p -> check_matches_rebuild "after insert" (ignore p; dyn))
    extras;
  List.iter
    (fun id -> Alcotest.(check bool) "delete returns true" true (Dynamic.delete dyn id))
    ids;
  check_matches_rebuild "after deleting the inserts" dyn;
  let after = answer_bits dyn in
  Alcotest.(check (list int)) "round trip restores the ids" (fst before) (fst after);
  Alcotest.(check (list int64)) "round trip restores the mrr bits" (snd before)
    (snd after)

let test_duplicate_insert_is_noop () =
  let points = points_of ~n:30 ~d:2 ~seed:5 in
  let dyn = Dynamic.create points in
  let before = answer_bits dyn in
  let epoch0 = Dynamic.epoch dyn in
  (* duplicate every original point: all equal-excluded, nothing moves *)
  let dup_ids = Array.to_list (Array.map (fun p -> Dynamic.insert dyn (Vector.copy p)) points) in
  Alcotest.(check int) "epoch unchanged by duplicate inserts" epoch0
    (Dynamic.epoch dyn);
  Alcotest.(check int) "live counts the duplicates" 60 (Dynamic.live dyn);
  let after = answer_bits dyn in
  Alcotest.(check (list int)) "ids unchanged" (fst before) (fst after);
  Alcotest.(check (list int64)) "mrr bits unchanged" (snd before) (snd after);
  (* the duplicates never entered the skyline, so deleting them is a no-op
     too — answers and epoch still untouched *)
  List.iter (fun id -> ignore (Dynamic.delete dyn id)) dup_ids;
  Alcotest.(check int) "epoch unchanged by duplicate deletes" epoch0
    (Dynamic.epoch dyn);
  check_matches_rebuild "after duplicate churn" dyn

let test_dominated_insert_is_noop () =
  let points = points_of ~n:25 ~d:3 ~seed:9 in
  let dyn = Dynamic.create points in
  let before = answer_bits dyn in
  let epoch0 = Dynamic.epoch dyn in
  Array.iter
    (fun p -> ignore (Dynamic.insert dyn (Array.map (fun x -> x /. 2.) p)))
    points;
  Alcotest.(check int) "epoch unchanged by dominated inserts" epoch0
    (Dynamic.epoch dyn);
  let after = answer_bits dyn in
  Alcotest.(check (list int)) "ids unchanged" (fst before) (fst after);
  Alcotest.(check (list int64)) "mrr bits unchanged" (snd before) (snd after)

let test_delete_selected_point () =
  let points = points_of ~n:50 ~d:3 ~seed:21 in
  let dyn = Dynamic.create points in
  let top =
    match fst (Dynamic.query dyn ~k:1) with
    | [ id ] -> id
    | other ->
        Alcotest.failf "k=1 answered %d ids" (List.length other)
  in
  let epoch0 = Dynamic.epoch dyn in
  Alcotest.(check bool) "selected point deletes" true (Dynamic.delete dyn top);
  Alcotest.(check bool) "epoch bumped" true (Dynamic.epoch dyn > epoch0);
  check_matches_rebuild "after deleting the k=1 answer" dyn;
  (match fst (Dynamic.query dyn ~k:1) with
  | [ id ] ->
      Alcotest.(check bool) "the deleted point is gone from the answer" true
        (id <> top)
  | [] -> ()  (* a degenerate survivor set can materialize nothing *)
  | _ -> Alcotest.fail "k=1 answered more than one id")

let test_delete_everything () =
  let points = points_of ~n:20 ~d:2 ~seed:33 in
  let dyn = Dynamic.create points in
  (* kill the whole dataset one point at a time — this sweeps through
     "delete the entire skyline" repeatedly as successive layers surface *)
  for id = 0 to 19 do
    Alcotest.(check bool) "live point deletes" true (Dynamic.delete dyn id);
    check_matches_rebuild (Printf.sprintf "after deleting id %d" id) dyn
  done;
  Alcotest.(check int) "no live points left" 0 (Dynamic.live dyn);
  let ids, mrr = Dynamic.query dyn ~k:3 in
  Alcotest.(check (list int)) "empty selection" [] ids;
  Alcotest.(check (list int64)) "zero mrr"
    [ Int64.bits_of_float 0. ]
    [ Int64.bits_of_float mrr ];
  (* the store springs back: inserts into the emptied state work *)
  let id = Dynamic.insert dyn [| 0.9; 0.8 |] in
  Alcotest.(check (list int)) "fresh insert is the whole answer" [ id ]
    (fst (Dynamic.query dyn ~k:4));
  check_matches_rebuild "after reviving the store" dyn

let test_flush_identity () =
  let points = points_of ~n:40 ~d:3 ~seed:17 in
  let dyn = Dynamic.create points in
  List.iter
    (fun id -> ignore (Dynamic.delete dyn id))
    [ 0; 3; 7; 11; 19; 23 ];
  let before = answer_bits dyn in
  let epoch0 = Dynamic.epoch dyn in
  let tombs = Dynamic.tombstones dyn in
  Alcotest.(check bool) "something to reclaim" true (tombs > 0);
  Alcotest.(check int) "flush reclaims every tombstone" tombs (Dynamic.flush dyn);
  Alcotest.(check int) "no tombstones left" 0 (Dynamic.tombstones dyn);
  Alcotest.(check int) "epoch unchanged by compaction" epoch0 (Dynamic.epoch dyn);
  let after = answer_bits dyn in
  Alcotest.(check (list int)) "ids stable across flush" (fst before) (fst after);
  Alcotest.(check (list int64)) "mrr bits stable across flush" (snd before)
    (snd after);
  (* external ids survive compaction: old ids still deletable, new ids fresh *)
  Alcotest.(check bool) "pre-flush id still resolves" true (Dynamic.delete dyn 29);
  Alcotest.(check bool) "reclaimed id stays dead" false (Dynamic.delete dyn 3);
  let fresh = Dynamic.insert dyn [| 0.5; 0.6; 0.7 |] in
  Alcotest.(check bool) "fresh ids continue the sequence" true (fresh >= 40);
  check_matches_rebuild "after post-flush churn" dyn

let mk_instance ~seed ~id ~k points =
  { Instance.id; seed; dist = "test"; degeneracies = []; k; points }

let test_oracle_interleavings_across_widths () =
  (* the full fuzz harness on fixed instances, cross-checking pool widths
     1, 2 and 4 digest-by-digest (jobs_hi = 4) *)
  List.iter
    (fun (seed, id, n, d, k) ->
      let inst = mk_instance ~seed ~id ~k (points_of ~n ~d ~seed) in
      match Dynamic_oracle.check ~jobs_hi:4 inst with
      | [] -> ()
      | (_, msg) :: _ ->
          Alcotest.failf "oracle failure on seed=%d id=%d: %s" seed id msg)
    [ (101, 0, 12, 2, 3); (202, 1, 18, 3, 4); (303, 2, 25, 4, 2) ]

(* qcheck: growing a state point-by-point always matches a one-shot create
   over the same multiset — the insert path has no order dependence the
   rebuild can't see *)
let incremental_equals_batch =
  QCheck.Test.make ~count:60 ~name:"incremental create = batch create"
    (Testutil.qc_points ~n:18 ~d:3)
    (fun pts ->
      let pts = Array.of_list pts in
      if Array.length pts < 2 then true
      else begin
        let base = [| pts.(0) |] in
        let dyn = Dynamic.create base in
        Array.iteri (fun i p -> if i > 0 then ignore (Dynamic.insert dyn p)) pts;
        let batch = Dynamic.create pts in
        let gi, gm = answer_bits dyn in
        let bi, bm = answer_bits batch in
        if gi <> bi || gm <> bm then
          QCheck.Test.fail_reportf
            "incremental [%s] differs from batch [%s]"
            (String.concat "," (List.map string_of_int gi))
            (String.concat "," (List.map string_of_int bi))
        else true
      end)

(* what a publication answers, as bits: every prefix query, and the
   basis (ids, row bits, candidates) it builds *)
let publication_bits (s : Snapshot.t) =
  let b = s.basis () in
  ( List.init
      (Array.length s.order + 1)
      (fun i ->
        let sel, mrr = Snapshot.query s ~k:(i + 1) in
        (sel, Int64.bits_of_float mrr)),
    Array.copy b.ids,
    Array.map (Array.map Int64.bits_of_float) b.rows,
    Array.copy b.candidates )

(* qcheck: a snapshot published after some updates answers the same bits
   after any later insert, skyline and non-skyline delete, flush, or
   growth of the slot store *)
let publication_never_moves =
  QCheck.Test.make ~count:40 ~name:"a publication never moves"
    QCheck.(triple (Testutil.qc_points ~n:24 ~d:3) small_nat small_nat)
    (fun (pts, seed, step) ->
      let dyn = Dynamic.create (Array.of_list pts) in
      let st = Random.State.make [| seed |] in
      let next_id = ref (List.length pts) in
      let insert p =
        incr next_id;
        Dynamic.insert dyn p
      in
      (* a fresh insert, a delete of a selected (skyline) id, or a delete
         of any id, usually off the skyline or already gone *)
      let update () =
        match Random.State.int st 3 with
        | 0 -> ignore (insert (Testutil.random_point st 3))
        | 1 -> (
            match fst (Dynamic.query dyn ~k:4) with
            | [] -> ()
            | sel ->
                ignore
                  (Dynamic.delete dyn
                     (List.nth sel (Random.State.int st (List.length sel)))))
        | _ -> ignore (Dynamic.delete dyn (Random.State.int st !next_id))
      in
      for _ = 1 to step mod 8 do
        update ()
      done;
      let s = Dynamic.snapshot dyn in
      let before = publication_bits s in
      for _ = 1 to 6 do
        update ()
      done;
      (match fst (Dynamic.query dyn ~k:1) with
      | [ top ] -> ignore (Dynamic.delete dyn top)
      | _ -> ());
      (* every point has coordinates >= 0.01, so this one is dominated
         unless nothing is live: its delete is off the skyline *)
      let tiny = [| 0.001; 0.001; 0.001 |] in
      ignore (Dynamic.delete dyn (insert tiny));
      ignore (Dynamic.flush dyn);
      (* the capacity never exceeds max 16 (2 * slots): this many inserts
         grow the store at least once *)
      for _ = 1 to (2 * Dynamic.slots dyn) + 17 do
        ignore (insert tiny)
      done;
      ignore (insert (Testutil.random_point st 3));
      let after = publication_bits s in
      if after <> before then
        QCheck.Test.fail_reportf "the publication after %d updates moved"
          (step mod 8)
      else true)

(* words [f ()] allocates, from the GC's counters: [Gc.minor_words] reads
   the live allocation pointer ([Gc.counters]' minor count lags it in
   native code), and a large array goes straight to the major heap *)
let words_allocated f =
  let _, promoted0, major0 = Gc.counters () in
  let minor0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  let minor1 = Gc.minor_words () in
  let _, promoted1, major1 = Gc.counters () in
  minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0)

(* the words one publication allocates after a no-op insert into [n]
   rows *)
let snapshot_words n =
  let points =
    (Dataset.normalize (Generator.independent (Rng.create 7) ~n ~d:3))
      .Dataset.points
  in
  let dyn = Dynamic.create points in
  ignore (Dynamic.snapshot dyn);
  let epoch = Dynamic.epoch dyn in
  (* a copy of a row is dominated or equalled by a skyline member *)
  ignore (Dynamic.insert dyn (Vector.copy points.(n / 2)));
  Alcotest.(check int) "the insert is a no-op" epoch (Dynamic.epoch dyn);
  words_allocated (fun () -> Dynamic.snapshot dyn)

let test_snapshot_cost_flat () =
  let small = snapshot_words 2_000 and large = snapshot_words 20_000 in
  if large > small then
    Alcotest.failf
      "a publication allocates %.0f words at n = 20,000 against %.0f at n = \
       2,000"
      large small

(* qcheck: [apply_cheap] applies exactly the updates that leave the
   epoch alone and trip no compaction, with the full path's results and
   answers; anything else it leaves untouched, for the full path *)
let apply_cheap_is_the_full_path =
  QCheck.Test.make ~count:60 ~name:"apply_cheap = the full path, when cheap"
    QCheck.(pair (Testutil.qc_points ~n:40 ~d:3) small_nat)
    (fun (pts, seed) ->
      let pts = Array.of_list pts in
      let full = Dynamic.create pts and split = Dynamic.create pts in
      let st = Random.State.make [| seed |] in
      let state d =
        (Dynamic.epoch d, Dynamic.live d, Dynamic.slots d, answer_bits d)
      in
      let pick l = List.nth l (Random.State.int st (List.length l)) in
      let op () =
        match Random.State.int st 6 with
        | 0 -> `Insert (Testutil.random_point st 3)
        | 1 ->
            (* dominated by its source row, while that row lives *)
            `Insert (Array.map (fun x -> x /. 2.) (pick (Array.to_list pts)))
        | 2 -> `Insert [| 0.5; 1.5; 0.5 |]
        | 3 -> (
            match fst (Dynamic.query full ~k:3) with
            | [] -> `Delete 0
            | sel -> `Delete (pick sel))
        | _ -> `Delete (Random.State.int st (Dynamic.slots full + 4))
      in
      let run f =
        match f () with
        | r -> `Done r
        | exception Invalid_argument _ -> `Bad
      in
      for step = 1 to 40 do
        let op = op () in
        let epoch = Dynamic.epoch full and slots = Dynamic.slots full in
        let want =
          run (fun () ->
              match op with
              | `Insert p -> Dynamic.Inserted (Dynamic.insert full p)
              | `Delete id -> Dynamic.Deleted (Dynamic.delete full id))
        in
        let before = state split in
        let got =
          match Dynamic.apply_cheap split op with
          | Some r -> `Done r
          | None ->
              if state split <> before then
                QCheck.Test.fail_reportf "step %d: a costly update touched it"
                  step;
              (* the full path must then move the epoch or compact *)
              if Dynamic.epoch full = epoch && Dynamic.slots full >= slots then
                QCheck.Test.fail_reportf "step %d: a cheap update was refused"
                  step;
              run (fun () ->
                  match op with
                  | `Insert p -> Dynamic.Inserted (Dynamic.insert split p)
                  | `Delete id -> Dynamic.Deleted (Dynamic.delete split id))
          | exception Invalid_argument _ -> `Bad
        in
        if got <> want then
          QCheck.Test.fail_reportf "step %d: apply_cheap answered otherwise" step;
        if state split <> state full then
          QCheck.Test.fail_reportf "step %d: the states diverged" step
      done;
      true)

(* a delete whose tombstone trips the auto-compaction is not cheap *)
let test_cheap_delete_stops_at_compaction () =
  (* row 0 dominates the other 63: the skyline is {0} *)
  let points =
    Array.init 64 (fun i ->
        if i = 0 then [| 1.; 1.; 1. |]
        else
          let x = 0.1 +. (float_of_int i /. 100.) in
          [| x; 0.8 -. x; 0.5 |])
  in
  let dyn = Dynamic.create points in
  (* the store compacts once more than half of its 64 slots are dead *)
  for id = 1 to 32 do
    match Dynamic.apply_cheap dyn (`Delete id) with
    | Some (Dynamic.Deleted true) -> ()
    | _ -> Alcotest.failf "delete of #%d: cheap" id
  done;
  Alcotest.(check int) "32 tombstones" 32 (Dynamic.tombstones dyn);
  Alcotest.(check bool) "the 33rd would compact" true
    (Dynamic.apply_cheap dyn (`Delete 33) = None);
  Alcotest.(check (pair int int)) "refused untouched" (32, 32)
    (Dynamic.live dyn, Dynamic.tombstones dyn);
  Alcotest.(check bool) "a skyline delete is not cheap" true
    (Dynamic.apply_cheap dyn (`Delete 0) = None);
  Alcotest.(check bool) "the full delete applies" true (Dynamic.delete dyn 33);
  Alcotest.(check int) "and compacts" 0 (Dynamic.tombstones dyn)

let suite =
  [
    Alcotest.test_case "insert-then-delete round trip is bit-identical" `Quick
      test_insert_delete_round_trip;
    Alcotest.test_case "duplicate inserts (and their deletes) are no-ops" `Quick
      test_duplicate_insert_is_noop;
    Alcotest.test_case "dominated inserts are no-ops" `Quick
      test_dominated_insert_is_noop;
    Alcotest.test_case "deleting the k=1 answer repairs exactly" `Quick
      test_delete_selected_point;
    Alcotest.test_case "deleting everything, then reviving" `Quick
      test_delete_everything;
    Alcotest.test_case "flush preserves answers and external ids" `Quick
      test_flush_identity;
    Alcotest.test_case "fuzz oracle clean on fixed instances at jobs {1,2,4}"
      `Slow test_oracle_interleavings_across_widths;
    QCheck_alcotest.to_alcotest incremental_equals_batch;
    QCheck_alcotest.to_alcotest publication_never_moves;
    Alcotest.test_case "a publication's cost does not grow with n" `Quick
      test_snapshot_cost_flat;
    QCheck_alcotest.to_alcotest apply_cheap_is_the_full_path;
    Alcotest.test_case "a compaction-triggering delete is not cheap" `Quick
      test_cheap_delete_stops_at_compaction;
  ]
