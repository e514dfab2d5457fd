module Vector = Kregret_geom.Vector
module Dominance = Kregret_skyline.Dominance
module Happy = Kregret_happy.Happy
module Obs = Kregret_obs

(* Observability. The counters are exact across pool widths (the update
   paths are sequential; the rebuild pipeline underneath is width-invariant
   by the repo-wide determinism contract). The gauge reports the last
   updated dataset — a fleet snapshot, not a per-dataset series. *)
let c_inserts =
  Obs.Registry.counter "dynamic.inserts" ~help:"inserts that changed the skyline"

let c_insert_noops =
  Obs.Registry.counter "dynamic.insert_noops"
    ~help:"inserts of dominated or duplicated points (structures untouched)"

let c_deletes =
  Obs.Registry.counter "dynamic.deletes" ~help:"deletes of live points"

let c_delete_noops =
  Obs.Registry.counter "dynamic.delete_noops"
    ~help:"deletes of unknown or already-deleted ids"

let c_sky_entrants =
  Obs.Registry.counter "dynamic.sky_entrants"
    ~help:"points re-entering the skyline after a skyline delete"

let c_sky_evictions =
  Obs.Registry.counter "dynamic.sky_evictions"
    ~help:"skyline points evicted by a dominating insert"

let c_rescreens =
  Obs.Registry.counter "dynamic.happy_rescreens"
    ~help:"full happy re-screens of a single skyline point"

let c_screen_completions =
  Obs.Registry.counter "dynamic.screen_completions"
    ~help:
      "batch happy screens that gave every skyline member of a lazily built \
       dataset its verdict and witness"

let c_stored_reuse =
  Obs.Registry.counter "dynamic.stored_reuse"
    ~help:"skyline changes that left the happy set, and hence the stored list, intact"

let c_memo_hits =
  Obs.Registry.counter "dynamic.stored_memo_hits"
    ~help:"stored lists restored bit-identically from the round-trip memo"

let c_stored_rebuilds =
  Obs.Registry.counter "dynamic.stored_rebuilds"
    ~help:"stored-list preprocessing passes triggered by updates"

let c_full_invalidations =
  Obs.Registry.counter "dynamic.stored_full_invalidations"
    ~help:"stored rebuilds whose order diverged from the old list at position 0"

let c_flushes =
  Obs.Registry.counter "dynamic.flushes" ~help:"tombstone compactions"

let h_repair_depth =
  Obs.Registry.histogram "dynamic.repair_depth"
    ~help:
      "stored-list entries re-derived per structural update (distance from \
       the first invalidated position to the end of the list)"
    ~buckets:[| 0.; 1.; 2.; 4.; 8.; 16.; 32.; 64.; 128.; 256.; 1024. |]

(* named for the stage it measures: the basis a publication builds on its
   first rank read *)
let c_basis_rows =
  Obs.Registry.counter "snapshot.basis_rows"
    ~help:"live rows copied into rank bases built from published snapshots"

let g_tombstone_ratio =
  Obs.Registry.gauge "dynamic.tombstone_ratio"
    ~help:"tombstoned fraction of the slot store (last updated dataset)"

(* verdict of a skyline member under the happy screen; the witness is the
   slot position of one subjugator *)
type verdict = V_happy | V_unhappy of int

(* tombstone fraction that triggers an automatic compaction, and the
   round-trip memo's capacity *)
let damage_ratio = 0.5
let memo_cap = 8

type t = {
  max_length : int option;
  dim : int;
  (* slot store, in insertion order; a delete tombstones its slot by
     recording the [basis_version] it died at in [died] ([max_int] while
     live), [flush] compacts. Slot positions are internal — external ids
     are stable across compaction.

     Append-only: every snapshot shares [data], [ids], [died] and [sky]
     as they were when it was published, so no slot below [used] is ever
     written again in an array already handed out. [insert] writes at
     [used]; [grow] and [compact] build new arrays; [sky] is only ever
     replaced, never written in place. The one write below [used] is a
     delete's [died.(p) <- basis_version], and that version exceeds the
     [basis_version] of every earlier snapshot, which therefore still
     sees the slot live (a basis built on another thread while the write
     lands reads [max_int] or the new version, live either way). Keep it
     that way: the snapshots' bases depend on it. *)
  mutable data : Vector.t array;
  mutable ids : int array;
  mutable died : int array;
  mutable used : int;
  mutable live : int;
  mutable next_id : int;
  id_index : (int, int) Hashtbl.t; (* external id -> slot position *)
  (* derived pipeline state; [sky] and [happy] hold slot positions in
     ascending order (= dataset order). The lazy build leaves the happy
     screen unknown: [happy] is [None], [verdicts] is empty and [stored]
     indexes [sky]. {!complete_screen} (the first skyline-moving update,
     or [happy_size]) fills them in; from then on [verdicts] is keyed by
     the members of [sky], [stored] indexes [happy], and [happy_vecs] is
     its candidate array. *)
  mutable sky : int array;
  verdicts : (int, verdict) Hashtbl.t;
  mutable happy : int array option;
  mutable happy_vecs : Vector.t array;
  mutable stored : Stored_list.t option;
  (* most-recently-used memo of (happy candidate array, stored list) pairs:
     an update stream that oscillates (insert then delete, or the reverse)
     lands back on a bit-identical happy array and skips the preprocessing
     pass; hits are verified by full bit comparison, never by hash *)
  mutable memo : (Vector.t array * Stored_list.t) list;
  mutable epoch : int;
  mutable basis_version : int;  (* live-set changes: inserts + deletes *)
  (* [(epoch, order, mrr)] of the last snapshot: reused while the epoch
     stays put *)
  mutable prefix : int * int array * float array;
}

(* ---- small helpers ------------------------------------------------------- *)

let vec_bits_equal a b =
  Array.length a = Array.length b
  &&
  let ok = ref true in
  Array.iteri
    (fun i x ->
      if Int64.bits_of_float x <> Int64.bits_of_float b.(i) then ok := false)
    a;
  !ok

let vecs_bits_equal a b =
  Array.length a = Array.length b
  &&
  let ok = ref true in
  Array.iteri (fun i v -> if not (vec_bits_equal v b.(i)) then ok := false) a;
  !ok

let common_prefix a b =
  let n = min (Array.length a) (Array.length b) in
  let i = ref 0 in
  while !i < n && a.(!i) = b.(!i) do
    incr i
  done;
  !i

let live t = t.live
let slots t = t.used
let tombstones t = t.used - t.live
let epoch t = t.epoch
let is_live t p = t.died.(p) = max_int
let sky_size t = Array.length t.sky

(* binary search of the ascending [sky] *)
let in_sky t p =
  let lo = ref 0 and hi = ref (Array.length t.sky) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.sky.(mid) < p then lo := mid + 1 else hi := mid
  done;
  !lo < Array.length t.sky && t.sky.(!lo) = p

(* slot positions of the stored list's candidate array *)
let listed t = match t.happy with Some h -> h | None -> t.sky

let stored_length t =
  match t.stored with None -> 0 | Some s -> Stored_list.length s

(* external ids of the stored-list entries, in list order *)
let order_ids t =
  match t.stored with
  | None -> [||]
  | Some s ->
      let rows = listed t in
      Array.of_list (List.map (fun e -> t.ids.(rows.(e))) (Stored_list.order s))

(* ---- queries ------------------------------------------------------------- *)

let query t ~k =
  if k < 1 then invalid_arg "Dynamic.query: k must be positive";
  match t.stored with
  | None -> ([], 0.)
  | Some s ->
      let rows = listed t in
      let sel = List.map (fun e -> t.ids.(rows.(e))) (Stored_list.query s ~k) in
      (sel, Stored_list.mrr_at s ~k)

let mrr_at t ~k =
  if k < 1 then invalid_arg "Dynamic.mrr_at: k must be positive";
  match t.stored with None -> 0. | Some s -> Stored_list.mrr_at s ~k

(* ---- snapshots ----------------------------------------------------------- *)

(* The basis of a snapshot published at [version]: the [live] slots below
   [used] that had not died by then, in slot order (= ascending id).
   [sky] holds live slots in ascending order too, so the same walk maps
   each skyline member to its basis index. *)
let basis_at ~data ~ids ~died ~used ~version ~sky ~live () =
  Obs.Counter.add c_basis_rows live;
  let basis_ids = Array.make live 0 and rows = Array.make live [||] in
  let m = Array.length sky in
  let candidates = Array.make m 0 in
  let j = ref 0 and s = ref 0 in
  for p = 0 to used - 1 do
    if died.(p) > version then begin
      if !s < m && sky.(!s) = p then begin
        candidates.(!s) <- !j;
        incr s
      end;
      basis_ids.(!j) <- ids.(p);
      rows.(!j) <- data.(p);
      incr j
    end
  done;
  { Snapshot.ids = basis_ids; rows; candidates }

(* O(1) in the rows: the basis closure shares the slot store (see [t]) *)
let snapshot t =
  let order, mrr =
    match t.prefix with
    | e, order, mrr when e = t.epoch -> (order, mrr)
    | _ ->
        let order, mrr =
          Snapshot.prefix t.stored
            ~ids:(Array.map (fun p -> t.ids.(p)) (listed t))
        in
        t.prefix <- (t.epoch, order, mrr);
        (order, mrr)
  in
  {
    Snapshot.epoch = t.epoch;
    live = t.live;
    n_sky = Array.length t.sky;
    n_happy = Option.map Array.length t.happy;
    order;
    mrr;
    basis_version = t.basis_version;
    basis =
      basis_at ~data:t.data ~ids:t.ids ~died:t.died ~used:t.used
        ~version:t.basis_version ~sky:t.sky ~live:t.live;
  }

(* ---- stored-list maintenance --------------------------------------------- *)

let memo_find t vecs =
  let rec go acc = function
    | [] -> None
    | ((v, s) as hit) :: rest ->
        if vecs_bits_equal v vecs then begin
          (* move to front *)
          t.memo <- hit :: List.rev_append acc rest;
          Some s
        end
        else go (hit :: acc) rest
  in
  go [] t.memo

let memo_push t vecs stored =
  match stored with
  | None -> ()
  | Some s ->
      let keep = memo_cap - 1 in
      t.memo <-
        (vecs, s) :: List.filteri (fun i _ -> i < keep) t.memo

(* Recompute the happy set from the verdicts and bring the stored list back
   in sync. Exactness note: a fresh [Stored_list.preprocess] is the only way
   to reproduce the rebuild pipeline bit-for-bit — GeoGreedy's champion
   cache is event-driven, and a replayed prefix continued after a full
   rescan can differ from the fresh run by one ulp in the plateau entries
   (the rescan sees the true vertex maximum where the event path saw the
   maximum over replacement faces only). So the reuse tiers here trigger
   only on bit-equal candidate arrays — the unchanged-happy fast path and
   the round-trip memo — and every other structural change pays one
   preprocessing pass over the happy set, with the first invalidated
   position recorded in the repair-depth histogram. *)
let refresh_after_sky_change t =
  let old_ids = order_ids t in
  let old_vecs = t.happy_vecs in
  let old_stored = t.stored in
  let hap =
    Array.of_list
      (List.filter
         (fun p -> Hashtbl.find t.verdicts p = V_happy)
         (Array.to_list t.sky))
  in
  t.happy <- Some hap;
  let vecs = Array.map (fun p -> t.data.(p)) hap in
  if vecs_bits_equal old_vecs vecs then begin
    (* the happy candidate array is unchanged bit-for-bit: the stored list
       (which only indexes into it) is still exact *)
    Obs.Counter.incr c_stored_reuse;
    Obs.Histogram.observe h_repair_depth 0.;
    t.happy_vecs <- vecs
  end
  else begin
    (match memo_find t vecs with
    | Some s ->
        memo_push t old_vecs old_stored;
        t.stored <- Some s;
        Obs.Counter.incr c_memo_hits
    | None ->
        memo_push t old_vecs old_stored;
        (* the happy screen can empty a nonempty skyline: when every live
           point lies strictly inside the unit simplex (sum < 1), each sky
           member subjugates the others under the eps slop. A normalized
           dataset cannot start there, but deletes of every boundary point
           reach it; answers are then empty until an insert restores one. *)
        t.stored <-
          (if Array.length vecs = 0 then None
           else Some (Stored_list.preprocess ?max_length:t.max_length vecs));
        Obs.Counter.incr c_stored_rebuilds);
    t.happy_vecs <- vecs;
    let new_ids = order_ids t in
    let depth = Array.length new_ids - common_prefix old_ids new_ids in
    Obs.Histogram.observe h_repair_depth (float_of_int depth);
    if
      common_prefix old_ids new_ids = 0
      && Array.length old_ids > 0
      && Array.length new_ids > 0
    then Obs.Counter.incr c_full_invalidations
  end;
  t.epoch <- t.epoch + 1

(* ---- happy re-screens ---------------------------------------------------- *)

(* The lazy build certified only the points GeoGreedy took. Before the
   first repair reads a verdict, screen the whole skyline in one batch
   pass that keeps witnesses, and remap the stored list (whose entries are
   all happy) onto happy indices. Answers, [epoch] and [basis_version]
   stay put. *)
let complete_screen t =
  if Option.is_none t.happy then begin
    Obs.Counter.incr c_screen_completions;
    let sky = t.sky in
    let verdicts = Happy.verdicts (Array.map (fun p -> t.data.(p)) sky) in
    let rank = Array.make (Array.length sky) (-1) and hap = ref [] in
    let n_happy = ref 0 in
    Array.iteri
      (fun i p ->
        match verdicts.(i) with
        | None ->
            rank.(i) <- !n_happy;
            incr n_happy;
            hap := p :: !hap;
            Hashtbl.replace t.verdicts p V_happy
        | Some w -> Hashtbl.replace t.verdicts p (V_unhappy sky.(w)))
      sky;
    let hap = Array.of_list (List.rev !hap) in
    t.stored <- Option.map (fun s -> Stored_list.reindex s (fun e -> rank.(e))) t.stored;
    t.happy <- Some hap;
    t.happy_vecs <- Array.map (fun p -> t.data.(p)) hap
  end

let happy_size t =
  complete_screen t;
  Array.length (listed t)

(* full screen of one skyline member against the current skyline; verdicts
   are order-independent (a point is unhappy iff someone subjugates it), so
   probing in ascending position order is just a deterministic choice of
   witness. [subjugates] never counts a value-equal point, and the skyline
   holds no value-equal pairs, so self-probes are harmless. *)
let rescreen t pos =
  Obs.Counter.incr c_rescreens;
  let v = t.data.(pos) in
  let verdict = ref V_happy in
  let i = ref 0 in
  let m = Array.length t.sky in
  while !verdict = V_happy && !i < m do
    let s = t.sky.(!i) in
    if s <> pos && Happy.subjugates t.data.(s) v then
      verdict := V_unhappy s;
    incr i
  done;
  Hashtbl.replace t.verdicts pos !verdict

(* ---- construction -------------------------------------------------------- *)

let create ?max_length points =
  let n = Array.length points in
  if n = 0 then invalid_arg "Dynamic.create: empty dataset";
  let d = Vector.dim points.(0) in
  Array.iter
    (fun p ->
      if Vector.dim p <> d then
        invalid_arg "Dynamic.create: inconsistent dimensions")
    points;
  let cap = max 16 (2 * n) in
  let data = Array.make cap [||] in
  Array.blit points 0 data 0 n;
  let id_index = Hashtbl.create (2 * cap) in
  for i = 0 to n - 1 do
    Hashtbl.replace id_index i i
  done;
  (* slot [i] holds point [i], so the funnel's indices are slot positions.
     [Skyline.sfs] keeps the first occurrence of a duplicated maximal point
     by input order, and the incremental rules below maintain exactly that
     rule — an equal pair is won by the smaller slot. One rule everywhere
     keeps the id-level answers of the create path and the update path
     identical. *)
  let f = Stored_list.funnel ?max_length points in
  {
    max_length;
    dim = d;
    data;
    ids = Array.init cap (fun i -> if i < n then i else 0);
    died = Array.make cap max_int;
    used = n;
    live = n;
    next_id = n;
    id_index;
    sky = f.Stored_list.sky;
    verdicts = Hashtbl.create 64;
    happy = None;
    happy_vecs = [||];
    stored = f.Stored_list.stored;
    memo = [];
    epoch = 0;
    basis_version = 0;
    prefix = (-1, [||], [||]);
  }

(* ---- compaction ---------------------------------------------------------- *)

let compact t =
  if t.used > t.live then begin
    let remap = Array.make t.used (-1) in
    let data = Array.make (max 16 (2 * t.live)) [||] in
    let ids = Array.make (Array.length data) 0 in
    let j = ref 0 in
    for p = 0 to t.used - 1 do
      if is_live t p then begin
        remap.(p) <- !j;
        data.(!j) <- t.data.(p);
        ids.(!j) <- t.ids.(p);
        incr j
      end
    done;
    t.data <- data;
    t.ids <- ids;
    t.died <- Array.make (Array.length data) max_int;
    t.used <- t.live;
    Hashtbl.reset t.id_index;
    for p = 0 to t.used - 1 do
      Hashtbl.replace t.id_index t.ids.(p) p
    done;
    t.sky <- Array.map (fun p -> remap.(p)) t.sky;
    t.happy <- Option.map (Array.map (fun p -> remap.(p))) t.happy;
    let old_verdicts = Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.verdicts [] in
    Hashtbl.reset t.verdicts;
    List.iter
      (fun (p, v) ->
        let v =
          match v with
          | V_happy -> V_happy
          | V_unhappy w -> V_unhappy remap.(w)
        in
        Hashtbl.replace t.verdicts remap.(p) v)
      old_verdicts;
    (* positions changed but the live sequence — and hence every answer —
       did not: the happy candidate array and the stored list carry over,
       and the epoch stays put *)
    Obs.Counter.incr c_flushes
  end

let flush t =
  let reclaimed = t.used - t.live in
  compact t;
  Obs.Gauge.set g_tombstone_ratio 0.;
  reclaimed

(* whether [tombs] tombstones call for an automatic compaction *)
let compaction_due t ~tombs =
  t.used >= 64 && float_of_int tombs > damage_ratio *. float_of_int t.used

let maybe_flush t =
  let tombs = t.used - t.live in
  Obs.Gauge.set g_tombstone_ratio
    (if t.used = 0 then 0. else float_of_int tombs /. float_of_int t.used);
  if compaction_due t ~tombs then ignore (flush t)

(* ---- updates ------------------------------------------------------------- *)

let grow t =
  if t.used = Array.length t.data then begin
    let cap = 2 * Array.length t.data in
    let data = Array.make cap [||] in
    let ids = Array.make cap 0 in
    let died = Array.make cap max_int in
    Array.blit t.data 0 data 0 t.used;
    Array.blit t.ids 0 ids 0 t.used;
    Array.blit t.died 0 died 0 t.used;
    t.data <- data;
    t.ids <- ids;
    t.died <- died
  end

let check_point t vec =
  if Array.length vec <> t.dim then
    invalid_arg "Dynamic.insert: wrong dimension";
  Array.iter
    (fun x ->
      if not (Float.is_finite x) || x <= 0. || x > 1. then
        invalid_arg "Dynamic.insert: coordinates must lie in (0, 1]")
    vec

(* Classify a new point against the skyline: [None] when some member
   dominates or equals it, so it cannot enter (the member is earlier, so
   even an exact duplicate stays out — the skyline keeps the first of an
   equal pair) and nothing else changes: dominance by any live point is
   always witnessed by a skyline member. Otherwise [Some evicted]: it
   enters, evicting the members it strictly dominates. Both verdicts
   cannot hold at once (dominance is transitive and the skyline has no
   dominated pairs). *)
let sky_entry t vec =
  let excluded = ref false in
  let evicted = ref [] in
  let i = ref 0 in
  let m = Array.length t.sky in
  while (not !excluded) && !i < m do
    let s = t.sky.(!i) in
    (match Dominance.compare t.data.(s) vec with
    | Dominance.Dominates | Dominance.Equal -> excluded := true
    | Dominance.Dominated -> evicted := s :: !evicted
    | Dominance.Incomparable -> ());
    incr i
  done;
  if !excluded then None else Some !evicted

(* [insert] of a checked point, once [sky_entry] has classified it *)
let insert_as t vec entry =
  grow t;
  let pos = t.used in
  let id = t.next_id in
  t.data.(pos) <- vec;
  t.ids.(pos) <- id;
  t.died.(pos) <- max_int;
  t.used <- t.used + 1;
  t.live <- t.live + 1;
  t.next_id <- t.next_id + 1;
  t.basis_version <- t.basis_version + 1;
  Hashtbl.replace t.id_index id pos;
  match entry with
  | None ->
      Obs.Counter.incr c_insert_noops;
      id
  | Some evicted ->
      Obs.Counter.incr c_inserts;
      complete_screen t;
      let evicted_tbl = Hashtbl.create 8 in
      List.iter
        (fun s ->
          Hashtbl.replace evicted_tbl s ();
          Hashtbl.remove t.verdicts s;
          Obs.Counter.incr c_sky_evictions)
        evicted;
      let survivors =
        Array.of_list
          (List.filter
             (fun s -> not (Hashtbl.mem evicted_tbl s))
             (Array.to_list t.sky))
      in
      (* the new point has the largest slot position: append keeps ascending *)
      t.sky <- Array.append survivors [| pos |];
      (* bounded re-screen: a surviving happy member can only have gained the
         new point as a subjugator; a surviving unhappy member stays unhappy
         unless its witness was evicted *)
      let by_new = Happy.subjugator vec in
      Array.iter
        (fun s ->
          match Hashtbl.find t.verdicts s with
          | V_happy ->
              if by_new t.data.(s) then
                Hashtbl.replace t.verdicts s (V_unhappy pos)
          | V_unhappy w -> if Hashtbl.mem evicted_tbl w then rescreen t s)
        survivors;
      rescreen t pos;
      refresh_after_sky_change t;
      id

let insert t vec =
  check_point t vec;
  insert_as t vec (sky_entry t vec)

let delete t id =
  match Hashtbl.find_opt t.id_index id with
  | None ->
      Obs.Counter.incr c_delete_noops;
      false
  | Some pos when not (is_live t pos) ->
      Obs.Counter.incr c_delete_noops;
      false
  | Some pos ->
      let in_sky = in_sky t pos in
      if in_sky then complete_screen t;
      t.basis_version <- t.basis_version + 1;
      t.died.(pos) <- t.basis_version;
      t.live <- t.live - 1;
      Hashtbl.remove t.id_index id;
      Obs.Counter.incr c_deletes;
      if in_sky then begin
        let x = t.data.(pos) in
        Hashtbl.remove t.verdicts pos;
        let survivors =
          Array.of_list (List.filter (fun s -> s <> pos) (Array.to_list t.sky))
        in
        t.sky <- survivors;
        (* re-entry candidates: the live points the deleted member excluded
           (it dominated them, or equalled them from an earlier slot). Any
           other exclusion is still witnessed by a surviving member, so two
           bounded filters recover the exact new skyline: drop candidates a
           survivor dominates-or-equals, then run the pairwise rule among
           what is left (earlier slot wins an equal pair). *)
        let cands = ref [] in
        for q = t.used - 1 downto 0 do
          if is_live t q && not (Hashtbl.mem t.verdicts q) then
            match Dominance.compare x t.data.(q) with
            | Dominance.Dominates | Dominance.Equal -> cands := q :: !cands
            | Dominance.Dominated | Dominance.Incomparable -> ()
        done;
        let filtered =
          List.filter
            (fun q ->
              not
                (Array.exists
                   (fun s ->
                     match Dominance.compare t.data.(s) t.data.(q) with
                     | Dominance.Dominates | Dominance.Equal -> true
                     | _ -> false)
                   survivors))
            !cands
        in
        let entrants =
          List.filter
            (fun q ->
              not
                (List.exists
                   (fun r ->
                     r <> q
                     &&
                     match Dominance.compare t.data.(r) t.data.(q) with
                     | Dominance.Dominates -> true
                     | Dominance.Equal -> r < q
                     | _ -> false)
                   filtered))
            filtered
        in
        let entrants = Array.of_list entrants in
        Obs.Counter.add c_sky_entrants (Array.length entrants);
        (* merge two ascending position arrays *)
        let merged = Array.make (Array.length survivors + Array.length entrants) 0 in
        let a = ref 0 and b = ref 0 and w = ref 0 in
        while !a < Array.length survivors || !b < Array.length entrants do
          let take_a =
            !b >= Array.length entrants
            || (!a < Array.length survivors && survivors.(!a) < entrants.(!b))
          in
          if take_a then begin
            merged.(!w) <- survivors.(!a);
            incr a
          end
          else begin
            merged.(!w) <- entrants.(!b);
            incr b
          end;
          incr w
        done;
        t.sky <- merged;
        (* bounded re-screen mirroring the insert path: a surviving happy
           member can only have gained an entrant as a subjugator; unhappy
           members re-screen only when their witness was the deleted point;
           entrants get a full screen *)
        let by_entrant =
          Array.map (fun e -> (e, Happy.subjugator t.data.(e))) entrants
        in
        Array.iter
          (fun s ->
            match Hashtbl.find t.verdicts s with
            | V_happy ->
                let w = ref (-1) in
                Array.iter
                  (fun (e, subjugates) ->
                    if !w < 0 && subjugates t.data.(s) then w := e)
                  by_entrant;
                if !w >= 0 then Hashtbl.replace t.verdicts s (V_unhappy !w)
            | V_unhappy w -> if w = pos then rescreen t s)
          survivors;
        Array.iter (fun e -> rescreen t e) entrants;
        refresh_after_sky_change t
      end;
      maybe_flush t;
      true

type cheap = Inserted of int | Deleted of bool

(* The one decision of which updates are cheap: those that cannot move
   the skyline, and so leave the epoch alone, at O(|sky| * d) for an
   insert (one [sky_entry] scan) and O(1) for a delete. A skyline delete
   (re-entry scan, re-screens, a stored-list pass) and a delete whose
   tombstone trips the auto-compaction are not. *)
let apply_cheap t op =
  match op with
  | `Insert vec -> (
      check_point t vec;
      match sky_entry t vec with
      | None -> Some (Inserted (insert_as t vec None))
      | Some _ -> None)
  | `Delete id -> (
      match Hashtbl.find_opt t.id_index id with
      | Some pos
        when is_live t pos
             && (in_sky t pos || compaction_due t ~tombs:(t.used - t.live + 1)) ->
          None
      | _ -> Some (Deleted (delete t id)))
  | `Flush -> None
