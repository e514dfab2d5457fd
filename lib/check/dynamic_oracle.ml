module Rng = Kregret_dataset.Rng
module Vector = Kregret_geom.Vector
module Skyline = Kregret_skyline.Skyline
module Happy = Kregret_happy.Happy
module Stored_list = Kregret.Stored_list
module Dynamic = Kregret.Dynamic
module Snapshot = Kregret.Snapshot
module Pool = Kregret_parallel.Pool

(* An update trace is data, not closures, so the shrinker can ddmin it and
   a failure report can print it. Delete targets come in two flavors:
   [Del_id] names an external id outright (often a miss — the no-op path
   must answer [false] and change nothing), while [Del_selected]/
   [Del_answer] resolve against the answer the structure is currently
   giving, which steers deletions into the stored list's prefix — the
   repair-heavy region — on any sub-trace the shrinker tries. *)
type op =
  | Ins of float array
  | Del_id of int
  | Del_selected of int  (* i-th id of the current full answer, mod length *)
  | Del_answer  (* delete every currently selected id, in answer order *)
  | Query of int
  | Mrr of int
  | Flush

let pp_vec v =
  "(" ^ String.concat " " (List.map (Printf.sprintf "%.17g") (Array.to_list v)) ^ ")"

let pp_op = function
  | Ins v -> "ins" ^ pp_vec v
  | Del_id id -> Printf.sprintf "del#%d" id
  | Del_selected i -> Printf.sprintf "del-sel[%d]" i
  | Del_answer -> "del-answer"
  | Query k -> Printf.sprintf "query k=%d" k
  | Mrr k -> Printf.sprintf "mrr k=%d" k
  | Flush -> "flush"

let pp_trace ops = String.concat "; " (List.map pp_op ops)

(* ---- trace generation -----------------------------------------------------

   A pure function of the instance (seed, id), like every other oracle
   input. Inserted points are biased toward trouble: exact copies of
   dataset points (duplicate inserts), dominated and dominating
   perturbations, and lattice snaps that manufacture ties. *)

let clamp01 x = Float.max 1e-6 (Float.min 1. x)

let gen_point rng inst =
  let d = Instance.d inst in
  let points = inst.Instance.points in
  let n = Array.length points in
  match Rng.int rng 10 with
  | 0 | 1 | 2 | 3 ->
      Array.init d (fun _ -> clamp01 (Rng.float rng))
  | 4 | 5 ->
      (* exact duplicate of a dataset point: must be a no-op insert *)
      Array.map clamp01 points.(Rng.int rng n)
  | 6 ->
      (* dominated perturbation: one coordinate pushed down *)
      let p = Array.map clamp01 points.(Rng.int rng n) in
      p.(Rng.int rng d) <- clamp01 (p.(Rng.int rng d) *. 0.5);
      p
  | 7 ->
      (* dominating perturbation: every coordinate pushed up a little *)
      Array.map (fun x -> clamp01 (x *. 1.25)) points.(Rng.int rng n)
  | _ ->
      let g = [| 4.; 8.; 16. |].(Rng.int rng 3) in
      Array.init d (fun _ ->
          clamp01 (Float.round (Rng.float rng *. g) /. g))

let gen_ops rng inst =
  let n = Instance.n inst in
  let n_ops = 12 + Rng.int rng 19 in
  let k_hi = max 1 (min 16 (n + 4)) in
  List.init n_ops (fun _ ->
      match Rng.int rng 20 with
      | 0 | 1 | 2 | 3 | 4 | 5 -> Ins (gen_point rng inst)
      | 6 | 7 | 8 -> Del_id (Rng.int rng (n + n_ops))
      | 9 | 10 | 11 -> Del_selected (Rng.int rng 8)
      | 12 -> Del_answer
      | 13 | 14 | 15 -> Query (1 + Rng.int rng k_hi)
      | 16 | 17 -> Mrr (1 + Rng.int rng k_hi)
      | _ -> Flush)

(* ---- the rebuild-from-scratch pipeline ------------------------------------

   The ground truth: run the whole static pipeline on the live points. The
   skyline step is the [naive] reference — the same first-by-input-order
   duplicate rule [Dynamic] maintains incrementally and rebuilds with
   [sfs]. *)

type expected = {
  x_ids : int array; (* stored order as external ids *)
  x_mrr : float array; (* per-prefix regret *)
  x_sky : int array; (* skyline, as indices into the live points *)
  x_happy : int;
}

let expected_of_live live =
  if Array.length live = 0 then
    { x_ids = [||]; x_mrr = [||]; x_sky = [||]; x_happy = 0 }
  else begin
    let vecs = Array.map snd live in
    let sky_idx = Skyline.naive vecs in
    let sky = Array.map (fun i -> vecs.(i)) sky_idx in
    let happy_idx = Happy.happy_points sky in
    if Array.length happy_idx = 0 then
      (* every sky point strictly inside the unit simplex: mutual
         subjugation empties the screen (deletes removed all boundary
         points). [Dynamic] materializes nothing in this state. *)
      {
        x_ids = [||];
        x_mrr = [||];
        x_sky = sky_idx;
        x_happy = 0;
      }
    else begin
      let happy = Array.map (fun i -> sky.(i)) happy_idx in
      let stored = Stored_list.preprocess happy in
      let len = Stored_list.length stored in
      {
        x_ids =
          Array.of_list
            (List.map
               (fun e -> fst live.(sky_idx.(happy_idx.(e))))
               (Stored_list.order stored));
        x_mrr = Array.init len (fun i -> Stored_list.mrr_at stored ~k:(i + 1));
        x_sky = sky_idx;
        x_happy = Array.length happy_idx;
      }
    end
  end

(* ---- trace execution ------------------------------------------------------ *)

let pp_ids ids =
  String.concat "," (List.map string_of_int (Array.to_list ids))

let full_answer dyn =
  let len = Dynamic.stored_length dyn in
  if len = 0 then ([||], [||])
  else
    let ids, _ = Dynamic.query dyn ~k:len in
    ( Array.of_list ids,
      Array.init len (fun i -> Dynamic.mrr_at dyn ~k:(i + 1)) )

let float_bits_equal a b =
  Array.length a = Array.length b
  &&
  let ok = ref true in
  Array.iteri
    (fun i x ->
      if Int64.bits_of_float x <> Int64.bits_of_float b.(i) then ok := false)
    a;
  !ok

(* one digest per op — compared bit-for-bit across pool widths *)
type digest = { g_ids : int array; g_mrr : float array; g_live : int; g_epoch : int }

(* what a publication answers, copied out: its order and prefix regrets,
   and the basis it builds *)
type view = {
  v_order : int array;
  v_mrr : float array;
  v_ids : int array;
  v_rows : float array array;
  v_candidates : int array;
}

let view (s : Snapshot.t) =
  let b = s.basis () in
  {
    v_order = Array.copy s.order;
    v_mrr = Array.copy s.mrr;
    v_ids = Array.copy b.ids;
    v_rows = Array.map Array.copy b.rows;
    v_candidates = Array.copy b.candidates;
  }

let rows_bits_equal a b =
  Array.length a = Array.length b && Array.for_all2 float_bits_equal a b

let view_equal a b =
  a.v_order = b.v_order
  && float_bits_equal a.v_mrr b.v_mrr
  && a.v_ids = b.v_ids
  && rows_bits_equal a.v_rows b.v_rows
  && a.v_candidates = b.v_candidates

(* [screen_each_op:false] reads [happy_size] only after the last op: until
   then no read completes the lazy build's happy screen, so the updates
   run on a not-yet-screened [Dynamic] *)
let run_trace ~screen_each_op inst ops =
  let failures = ref [] in
  let fail i fmt =
    Printf.ksprintf
      (fun m -> failures := Printf.sprintf "op %d (%s): %s" i (pp_op (List.nth ops i)) m :: !failures)
      fmt
  in
  let dyn = Dynamic.create inst.Instance.points in
  (* the mirror: live (id, point) pairs in insertion order *)
  let mirror = ref (Array.to_list (Array.mapi (fun i p -> (i, p)) inst.Instance.points)) in
  let digests = ref [] in
  (* every op's publication with what it answered when made; each must
     answer the same bits at the end of the trace, whatever came after *)
  let published = ref [] in
  let compare_full ~with_happy i v =
    let live = Array.of_list !mirror in
    let e = expected_of_live live in
    let got_ids, got_mrr = full_answer dyn in
    if got_ids <> e.x_ids then
      fail i "stored ids [%s], rebuild says [%s]" (pp_ids got_ids) (pp_ids e.x_ids);
    if not (float_bits_equal got_mrr e.x_mrr) then begin
      let j = ref 0 in
      let lim = min (Array.length got_mrr) (Array.length e.x_mrr) in
      while !j < lim
            && Int64.bits_of_float got_mrr.(!j) = Int64.bits_of_float e.x_mrr.(!j)
      do
        incr j
      done;
      if !j < lim then
        fail i "mrr at k=%d is %.17g, rebuild says %.17g" (!j + 1) got_mrr.(!j)
          e.x_mrr.(!j)
      else
        fail i "mrr table has %d entries, rebuild has %d" (Array.length got_mrr)
          (Array.length e.x_mrr)
    end;
    if Dynamic.sky_size dyn <> Array.length e.x_sky then
      fail i "skyline size %d, rebuild says %d" (Dynamic.sky_size dyn)
        (Array.length e.x_sky);
    if with_happy && Dynamic.happy_size dyn <> e.x_happy then
      fail i "happy size %d, rebuild says %d" (Dynamic.happy_size dyn) e.x_happy;
    if Dynamic.live dyn <> Array.length live then
      fail i "live count %d, mirror says %d" (Dynamic.live dyn) (Array.length live);
    (* the published read state: what the serving tier answers from *)
    if v.v_order <> got_ids || not (float_bits_equal v.v_mrr got_mrr) then
      fail i "snapshot order/mrr differ from the live structure";
    if v.v_ids <> Array.map fst live then
      fail i "snapshot basis [%s], mirror says [%s]" (pp_ids v.v_ids)
        (pp_ids (Array.map fst live));
    if not (rows_bits_equal v.v_rows (Array.map snd live)) then
      fail i "snapshot basis rows differ from the mirror's points";
    if v.v_candidates <> e.x_sky then
      fail i "snapshot candidates [%s], rebuild skyline [%s]"
        (pp_ids v.v_candidates) (pp_ids e.x_sky)
  in
  let delete_one i id =
    let was_live = List.mem_assoc id !mirror in
    let ok = Dynamic.delete dyn id in
    if ok <> was_live then
      fail i "delete #%d answered %b, mirror says %b" id ok was_live;
    if was_live then mirror := List.remove_assoc id !mirror
  in
  List.iteri
    (fun i op ->
      (match op with
      | Ins v ->
          let id = Dynamic.insert dyn v in
          mirror := !mirror @ [ (id, v) ]
      | Del_id id -> delete_one i id
      | Del_selected j ->
          let ids, _ = full_answer dyn in
          let m = Array.length ids in
          if m > 0 then delete_one i ids.(j mod m)
      | Del_answer ->
          let ids, _ = full_answer dyn in
          Array.iter (fun id -> delete_one i id) ids
      | Query k ->
          let sel, mrr = Dynamic.query dyn ~k in
          let live = Array.of_list !mirror in
          let e = expected_of_live live in
          let len = Array.length e.x_ids in
          let want_sel =
            Array.to_list (Array.sub e.x_ids 0 (min k len))
          in
          let want_mrr = if len = 0 then 0. else e.x_mrr.(min k len - 1) in
          if sel <> want_sel then
            fail i "selection [%s], rebuild says [%s]"
              (String.concat "," (List.map string_of_int sel))
              (String.concat "," (List.map string_of_int want_sel));
          if Int64.bits_of_float mrr <> Int64.bits_of_float want_mrr then
            fail i "mrr %.17g, rebuild says %.17g" mrr want_mrr
      | Mrr k ->
          let mrr = Dynamic.mrr_at dyn ~k in
          let e = expected_of_live (Array.of_list !mirror) in
          let len = Array.length e.x_ids in
          let want = if len = 0 then 0. else e.x_mrr.(min k len - 1) in
          if Int64.bits_of_float mrr <> Int64.bits_of_float want then
            fail i "mrr %.17g, rebuild says %.17g" mrr want
      | Flush ->
          let before = Dynamic.tombstones dyn in
          let reclaimed = Dynamic.flush dyn in
          if reclaimed <> before then
            fail i "flush reclaimed %d of %d tombstones" reclaimed before);
      (* the rebuild cross-check after every mutation is the whole point of
         the oracle; cap it by live-set size so the occasional n=400
         instance stays affordable (queries and the final op always pay) *)
      let last = i = List.length ops - 1 in
      let mutating =
        match op with Query _ | Mrr _ -> false | _ -> true
      in
      let s = Dynamic.snapshot dyn in
      let v = view s in
      published := (i, s, v) :: !published;
      if (mutating && (List.length !mirror <= 120 || last)) || ((not mutating) && last)
      then compare_full ~with_happy:(screen_each_op || last) i v;
      let g_ids, g_mrr = full_answer dyn in
      digests :=
        { g_ids; g_mrr; g_live = Dynamic.live dyn; g_epoch = Dynamic.epoch dyn }
        :: !digests)
    ops;
  List.iter
    (fun (i, s, v) ->
      if not (view_equal (view s) v) then
        fail i "its publication answers differently at the end of the trace")
    (List.rev !published);
  (List.rev !failures, List.rev !digests)

(* ---- the check ------------------------------------------------------------ *)

let with_jobs jobs f =
  let before = Pool.get_jobs () in
  Pool.set_jobs jobs;
  Fun.protect ~finally:(fun () -> Pool.set_jobs before) f

let widths jobs_hi =
  if jobs_hi <= 1 then [ 1 ] else List.sort_uniq compare [ 1; 2; 4; jobs_hi ]

let digests_equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun a b ->
         a.g_ids = b.g_ids
         && float_bits_equal a.g_mrr b.g_mrr
         && a.g_live = b.g_live
         && a.g_epoch = b.g_epoch)
       a b

let run_all ~jobs_hi inst ops =
  let runs =
    List.map
      (fun w ->
        (w, with_jobs w (fun () -> run_trace ~screen_each_op:true inst ops)))
      (widths jobs_hi)
  in
  (* once more at width 1, with the happy screen left to the updates *)
  let lazy_fails, lazy_digests =
    with_jobs 1 (fun () -> run_trace ~screen_each_op:false inst ops)
  in
  let failures =
    List.concat_map
      (fun (w, (fs, _)) ->
        List.map (fun m -> Printf.sprintf "jobs=%d: %s" w m) fs)
      runs
    @ List.map (fun m -> "unscreened: " ^ m) lazy_fails
  in
  let cross =
    match runs with
    | [] -> []
    | (_, (_, base)) :: rest ->
        List.concat_map
          (fun (w, (_, digests)) ->
            if digests_equal digests base then []
            else
              [
                Printf.sprintf
                  "answer stream differs between jobs=1 and jobs=%d" w;
              ])
          rest
        @
        if digests_equal lazy_digests base then []
        else
          [
            "answer stream differs between the screened and the unscreened \
             run";
          ]
  in
  failures @ cross

let check ?(jobs_hi = 2) inst =
  let rng =
    Rng.create ((inst.Instance.seed * 9_176_941) + inst.Instance.id + 1)
  in
  let ops = gen_ops rng inst in
  match run_all ~jobs_hi inst ops with
  | [] -> []
  | failures ->
      (* minimize the trace before reporting: the shrunk op list is what a
         human debugs (the fuzzer separately shrinks the instance itself) *)
      let fails sub = sub <> [] && run_all ~jobs_hi inst sub <> [] in
      let minimal = Shrink.trace ~max_attempts:64 ~fails ops in
      let head =
        Printf.sprintf "minimal failing trace (%d of %d ops): %s"
          (List.length minimal) (List.length ops) (pp_trace minimal)
      in
      List.map (fun m -> ("dynamic", m)) (head :: failures)
