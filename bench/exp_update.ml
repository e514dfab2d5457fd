(* Dynamic-updates experiment (the dynamic-datasets PR): incremental
   insert/delete maintenance (Kregret.Dynamic) vs rebuilding the whole
   pipeline (naive skyline -> happy screen -> StoredList preprocess) after
   every op — the only alternative a static deployment has.

   One churn workload, applied identically to both sides: a mix of fresh
   inserts, deliberately dominated inserts (the no-op fast path), random
   deletes and answer deletes (forced repair), over an anti-correlated
   base of [!update_n] points with the serving-style [max_length] cap.
   The baseline rebuild is timed on a subsample of ops (it is the slow
   side) and extrapolated to a per-op rate.

   Reported, and emitted to BENCH_update.json:
   - updates/sec incremental vs full-rebuild baseline (+ speedup)
   - repair depth p50/p99 (distance from the first answer position an op
     invalidated to the end; 0 = answers untouched), computed exactly from
     the answer arrays
   - maintenance tier rates from the dynamic.* counters: exact no-ops,
     stored reuse (bit-unchanged happy set) and the rebuild fallbacks (one
     preprocess pass), per applied op *)

open Bench_util
module Vector = Kregret_geom.Vector
module Dataset = Kregret_dataset.Dataset
module Generator = Kregret_dataset.Generator
module Rng = Kregret_dataset.Rng
module Skyline = Kregret_skyline.Skyline
module Happy = Kregret_happy.Happy
module Stored_list = Kregret.Stored_list
module Dynamic = Kregret.Dynamic
module Obs = Kregret_obs

let update_n = ref 10_000
let update_ops = ref 2_000
let update_d = 4
let max_length = 32

(* the workload: deterministic op stream over a mutable live-id mirror *)
type op = Ins of Vector.t | Del of int

let gen_ops rng ~base ~count =
  let next_id = ref (Array.length base) in
  let live = ref (Array.to_list (Array.mapi (fun i _ -> i) base)) in
  let live_arr () = Array.of_list !live in
  let pick_live () =
    let arr = live_arr () in
    arr.(Rng.int rng (Array.length arr))
  in
  List.init count (fun _ ->
      let roll = Rng.int rng 10 in
      if roll < 4 || !live = [] then begin
        (* fresh random point: may enter the skyline or land dominated *)
        let p =
          Array.init update_d (fun _ -> 0.01 +. (0.99 *. Rng.float rng))
        in
        live := !next_id :: !live;
        incr next_id;
        Ins p
      end
      else if roll < 6 then begin
        (* deliberately dominated insert: the exact no-op fast path *)
        let p =
          Array.init update_d (fun _ -> 0.005 +. (0.05 *. Rng.float rng))
        in
        live := !next_id :: !live;
        incr next_id;
        Ins p
      end
      else begin
        let id = pick_live () in
        live := List.filter (fun x -> x <> id) !live;
        Del id
      end)

(* full-rebuild baseline: what one update costs a static pipeline *)
let rebuild_once vecs =
  if Array.length vecs = 0 then 0
  else begin
    let sky_idx = Skyline.naive vecs in
    let sky = Array.map (fun i -> vecs.(i)) sky_idx in
    let happy_idx = Happy.happy_points sky in
    if Array.length happy_idx = 0 then 0
    else
      let happy = Array.map (fun i -> sky.(i)) happy_idx in
      Stored_list.length (Stored_list.preprocess ~max_length happy)
  end

let answer_ids dyn =
  let len = Dynamic.stored_length dyn in
  if len = 0 then [||] else Array.of_list (fst (Dynamic.query dyn ~k:len))

let repair_depth ~before ~after =
  let n = min (Array.length before) (Array.length after) in
  let i = ref 0 in
  while !i < n && before.(!i) = after.(!i) do
    incr i
  done;
  if !i = Array.length before && !i = Array.length after then 0
  else Array.length after - !i

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0 else sorted.(min (n - 1) (p * n / 100))

let run () =
  header "update: incremental insert/delete vs full rebuild";
  let n = !update_n and count = !update_ops in
  let base =
    (Dataset.normalize
       (Generator.anti_correlated (Rng.create bench_seed) ~n ~d:update_d))
      .Dataset.points
  in
  let ops = gen_ops (Rng.create (bench_seed + 1)) ~base ~count in
  note "n=%d d=%d ops=%d max_length=%d" n update_d count max_length;

  (* counters need observability; restore the caller's setting afterwards *)
  let obs_was = Obs.Control.enabled () in
  Obs.Control.set_enabled true;
  let c v = Obs.Registry.counter v ~help:"" in
  let read () =
    List.map
      (fun name -> (name, Obs.Counter.value (c ("dynamic." ^ name))))
      [
        "inserts"; "insert_noops"; "deletes"; "delete_noops"; "stored_reuse";
        "stored_rebuilds"; "flushes";
      ]
  in
  let before_counters = read () in

  (* incremental side: one prebuilt state, every op applied in sequence *)
  let dyn, t_build = time (fun () -> Dynamic.create ~max_length base) in
  let depths = Array.make count 0 in
  let t_inc =
    time_only (fun () ->
        List.iteri
          (fun i op ->
            let prev = answer_ids dyn in
            (match op with
            | Ins p -> ignore (Dynamic.insert dyn p)
            | Del id -> ignore (Dynamic.delete dyn id));
            depths.(i) <- repair_depth ~before:prev ~after:(answer_ids dyn))
          ops)
  in
  let deltas =
    List.map2
      (fun (name, b) (_, a) -> (name, a - b))
      before_counters (read ())
  in
  Obs.Control.set_enabled obs_was;
  let delta name = List.assoc name deltas in

  (* baseline side: rebuild from scratch after each op, timed on a
     subsample (every [stride]th op) and extrapolated *)
  let samples = min 60 count in
  let stride = max 1 (count / samples) in
  let live = Hashtbl.create (2 * n) in
  Array.iteri (fun i p -> Hashtbl.replace live i p) base;
  let next = ref (Array.length base) in
  let sampled = ref 0 and t_base_sampled = ref 0. in
  List.iteri
    (fun i op ->
      (match op with
      | Ins p ->
          Hashtbl.replace live !next p;
          incr next
      | Del id -> Hashtbl.remove live id);
      if i mod stride = 0 then begin
        let vecs = Array.of_seq (Hashtbl.to_seq_values live) in
        incr sampled;
        t_base_sampled := !t_base_sampled +. time_only (fun () -> ignore (rebuild_once vecs))
      end)
    ops;
  let per_op_base = !t_base_sampled /. float_of_int (max 1 !sampled) in
  let t_base = per_op_base *. float_of_int count in

  let rate_inc = float_of_int count /. t_inc in
  let rate_base = float_of_int count /. t_base in
  let speedup = t_base /. t_inc in
  Array.sort compare depths;
  let p50 = percentile depths 50 and p99 = percentile depths 99 in
  (* [dynamic.inserts]/[dynamic.deletes] count structural ops only; the
     no-op counters cover the rest, so rates use the right denominator *)
  let structural = delta "inserts" + delta "deletes" in
  let noops = delta "insert_noops" + delta "delete_noops" in
  let rate ctr =
    float_of_int (delta ctr) /. float_of_int (max 1 structural)
  in

  cells [ 34; 14; 14; 10 ]
    [ "side"; "updates/sec"; "total"; "" ];
  cells [ 34; 14; 14; 10 ]
    [ "incremental (Dynamic)"; Printf.sprintf "%.0f" rate_inc; seconds t_inc; "" ];
  cells [ 34; 14; 14; 10 ]
    [
      Printf.sprintf "full rebuild (x%d sampled)" !sampled;
      Printf.sprintf "%.0f" rate_base;
      seconds t_base;
      "";
    ];
  note "speedup %.1fx; initial build %s" speedup (seconds t_build);
  note "repair depth p50=%d p99=%d (answer positions invalidated)" p50 p99;
  note "ops: %.0f%% exact no-ops; per structural op: reuse %.2f, rebuild %.2f"
    (100. *. float_of_int noops /. float_of_int (max 1 (structural + noops)))
    (rate "stored_reuse") (rate "stored_rebuilds");

  emit_json ~id:"update"
    ~extra:
      [
        ("n", Int n);
        ("d", Int update_d);
        ("ops", Int count);
        ("max_length", Int max_length);
        ("build_seconds", Float t_build);
        ("updates_per_sec_incremental", Float rate_inc);
        ("updates_per_sec_rebuild", Float rate_base);
        ("speedup", Float speedup);
        ("repair_depth_p50", Int p50);
        ("repair_depth_p99", Int p99);
        ("rebuild_samples", Int !sampled);
      ]
    [
      [
        ("side", String "incremental");
        ("updates_per_sec", Float rate_inc);
        ("seconds", Float t_inc);
        ("structural", Int structural);
        ("noops", Int noops);
        ("stored_reuse", Int (delta "stored_reuse"));
        ("stored_rebuilds", Int (delta "stored_rebuilds"));
        ("flushes", Int (delta "flushes"));
      ];
      [
        ("side", String "full_rebuild");
        ("updates_per_sec", Float rate_base);
        ("seconds", Float t_base);
        ("sampled_ops", Int !sampled);
      ];
    ]
