(* In-process replays of what the server computes, over the same CSV
   bytes: they give the expected answer for every served frame, and, timed
   stage by stage, the per-layer figures of a traced run. *)

module Vector = Kregret_geom.Vector
module Dataset = Kregret_dataset.Dataset
module Csv_io = Kregret_dataset.Csv_io
module Generator = Kregret_dataset.Generator
module Rng = Kregret_dataset.Rng
module Skyline = Kregret_skyline.Skyline
module Happy = Kregret_happy.Happy
module Stored_list = Kregret.Stored_list
module Dynamic = Kregret.Dynamic
module Kernel = Kregret_approx.Kernel
module Pipeline = Kregret_approx.Pipeline
module Rrr = Kregret_rrr.Rrr
module Fingerprint = Kregret_serve.Fingerprint
module Obs = Kregret_obs

let max_k = 32

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* [counted f] runs [f] with the program's own counters zeroed first and
   returns them afterwards (all zero unless observability is enabled) *)
let counted f =
  Obs.Registry.reset ();
  let r, t = timed f in
  (r, t, Obs.Registry.counters ())

let count counters name = Option.value ~default:0 (List.assoc_opt name counters)

(* ---- datasets ------------------------------------------------------------- *)

type data = { name : string; path : string; rows : Vector.t array }

(* What the server's [load] does with the file: one read, a fingerprint
   of exactly those bytes, parse, normalize. *)
let parse_like_server ~name path =
  let contents = In_channel.with_open_bin path In_channel.input_all in
  ignore (Fingerprint.of_string contents);
  (Dataset.normalize (Csv_io.parse_string ~name ~path contents)).Dataset.points

(* anti-correlated rows drawn from [seed] and [salt] only, written where
   the server will read them *)
let dataset ~dir ~seed ~salt ~name ~n ~d =
  let path = Filename.concat dir (name ^ ".csv") in
  Csv_io.save path
    (Generator.anti_correlated (Rng.create ((seed * 1_000_003) + salt)) ~n ~d);
  { name; path; rows = parse_like_server ~name path }

(* ---- answers -------------------------------------------------------------- *)

type answer = { ids : int list; mrr : float }

(* skyline -> happy screen -> StoredList, the offline pipeline the serving
   registry runs for an exact load (naive skyline, no eps, capped at the
   server's --max-k) *)
type exact = {
  happy_ids : int array;  (* row ids of the happy points *)
  stored : Stored_list.t;
  n_happy_candidates : int;
  sky_s : float;
  happy_s : float;
  stored_s : float;
  sky_counters : (string * int) list;
  happy_counters : (string * int) list;
  stored_counters : (string * int) list;
}

let exact rows =
  let sky, sky_s, sky_counters = counted (fun () -> Skyline.naive rows) in
  let sky_vecs = Array.map (fun i -> rows.(i)) sky in
  let hap, happy_s, happy_counters =
    counted (fun () -> Happy.happy_points sky_vecs)
  in
  let happy_ids = Array.map (fun i -> sky.(i)) hap in
  let stored, stored_s, stored_counters =
    counted (fun () ->
        Stored_list.preprocess ~max_length:max_k
          (Array.map (fun i -> rows.(i)) happy_ids))
  in
  {
    happy_ids;
    stored;
    n_happy_candidates = Array.length sky;
    sky_s;
    happy_s;
    stored_s;
    sky_counters;
    happy_counters;
    stored_counters;
  }

let exact_answer e k =
  {
    ids = List.map (fun i -> e.happy_ids.(i)) (Stored_list.query e.stored ~k);
    mrr = Stored_list.mrr_at e.stored ~k;
  }

(* the ε-kernel tier: the server's approx load answers exactly like
   [Pipeline.run] (pinned by the shard tier's contract) *)
let approx ~eps rows = Pipeline.run ~max_length:max_k ~eps rows

let approx_answer a k =
  let ids, mrr = Pipeline.query a ~k in
  { ids; mrr }

(* rank-regret, the way the server answers an uncached [rank_regret]: an
   engine built with [~max_size:k] for each k, then queried at k. Times are
   means per answer over [ks]; counters are totals over all of them. *)
type rrr = {
  engines : (int * Rrr.t) list;  (* k -> Rrr.build ~max_size:k *)
  build_s : float;
  query_s : float;
  rrr_counters : (string * int) list;
}

let rrr ~ks rows =
  let per_k, _, rrr_counters =
    counted (fun () ->
        List.map
          (fun k ->
            let engine, b = timed (fun () -> Rrr.build ~max_size:k rows) in
            let _, q = timed (fun () -> Rrr.query engine ~k) in
            ((k, engine), b, q))
          ks)
  in
  let mean f = List.fold_left (fun a x -> a +. f x) 0. per_k /. float_of_int (List.length ks) in
  {
    engines = List.map (fun (e, _, _) -> e) per_k;
    build_s = mean (fun (_, b, _) -> b);
    query_s = mean (fun (_, _, q) -> q);
    rrr_counters;
  }

(* ---- updates -------------------------------------------------------------- *)

type op = Insert of float array | Delete of int

type reply = { id : int option; applied : bool; epoch : int; live : int }

let low_point rng d = Array.init d (fun _ -> 0.005 +. (0.05 *. Rng.float rng))

(* The write-mix stream: 40% fresh inserts, 20% dominated inserts, 40%
   deletes of a uniformly chosen live id. Fresh points come from the
   dataset's own distribution, so the skyline, and with it the cost of an
   update, stays the same from the first op to the last. Inserted ids
   continue the row ids, as the server assigns them. *)
let churn ~seed ~n ~d ~count =
  let rng = Rng.create ((seed * 1_000_003) + 99) in
  let fresh =
    (Generator.anti_correlated (Rng.create ((seed * 1_000_003) + 98)) ~n:(max 1 count) ~d)
      .Dataset.points
  in
  let fresh_used = ref 0 in
  let live = Array.make (n + count) 0 in
  for i = 0 to n - 1 do
    live.(i) <- i
  done;
  let live_n = ref n and next_id = ref n in
  Array.init count (fun _ ->
      let roll = Rng.int rng 10 in
      if roll < 6 || !live_n = 0 then begin
        let p =
          if roll < 4 then begin
            incr fresh_used;
            fresh.(!fresh_used - 1)
          end
          else low_point rng d
        in
        live.(!live_n) <- !next_id;
        incr live_n;
        incr next_id;
        Insert p
      end
      else begin
        let j = Rng.int rng !live_n in
        let id = live.(j) in
        decr live_n;
        live.(j) <- live.(!live_n);
        Delete id
      end)

(* Writes that leave every answer alone: a point dominated by a skyline
   member, then its delete. *)
let noop_writes ~seed ~rows ~happy_ids ~count =
  let rng = Rng.create ((seed * 1_000_003) + 77) in
  let d = Array.length rows.(0) in
  let n = Array.length rows in
  let rec dominated () =
    let p = low_point rng d in
    if Array.exists (fun i -> Kregret_skyline.Dominance.dominates rows.(i) p) happy_ids then p
    else dominated ()
  in
  Array.init count (fun i -> if i mod 2 = 0 then Insert (dominated ()) else Delete (n + (i / 2)))

(* Replay [ops] on an in-process [Dynamic] the way the registry worker
   applies them (op, then a published snapshot), recording the expected
   reply of every op and the answers at every epoch it passes through. *)
type replay = {
  replies : reply array;
  epochs : (int, int array * float array) Hashtbl.t;
      (* epoch -> first max_k ids, mrr of each prefix *)
  insert_s : float array;
  delete_s : float array;
  snapshot_s : float array;
}

let answers_of dyn =
  let ids, _ = Dynamic.query dyn ~k:max_k in
  (Array.of_list ids, Array.init max_k (fun i -> Dynamic.mrr_at dyn ~k:(i + 1)))

let replay rows ops =
  let dyn = Dynamic.create ~max_length:max_k rows in
  let epochs = Hashtbl.create 64 in
  Hashtbl.replace epochs 0 (answers_of dyn);
  let ins = ref [] and del = ref [] and snap = ref [] in
  let replies =
    Array.map
      (fun op ->
        let id, applied =
          match op with
          | Insert p ->
              let id, t = timed (fun () -> Dynamic.insert dyn p) in
              ins := t :: !ins;
              (Some id, true)
          | Delete id ->
              let ok, t = timed (fun () -> Dynamic.delete dyn id) in
              del := t :: !del;
              (None, ok)
        in
        let _, t = timed (fun () -> Dynamic.snapshot dyn) in
        snap := t :: !snap;
        let epoch = Dynamic.epoch dyn in
        if not (Hashtbl.mem epochs epoch) then
          Hashtbl.replace epochs epoch (answers_of dyn);
        { id; applied; epoch; live = Dynamic.live dyn })
      ops
  in
  {
    replies;
    epochs;
    insert_s = Array.of_list !ins;
    delete_s = Array.of_list !del;
    snapshot_s = Array.of_list !snap;
  }

let epoch_answer r epoch k =
  let ids, mrr = Hashtbl.find r.epochs epoch in
  let take_n = min k (Array.length ids) in
  {
    ids = Array.to_list (Array.sub ids 0 take_n);
    mrr = (if Array.length ids = 0 then 0. else mrr.(take_n - 1));
  }
