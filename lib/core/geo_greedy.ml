module Vector = Kregret_geom.Vector
module Flat = Kregret_geom.Flat
module Dd = Kregret_hull.Dd
module Dual_polytope = Kregret_hull.Dual_polytope
module Pool = Kregret_parallel.Pool
module Obs = Kregret_obs

(* Observability: every value flushed below is also a field of [result] (or
   derived from one), so the totals inherit the width-invariance the
   algorithm itself guarantees. *)
let c_runs = Obs.Registry.counter "geo_greedy.runs" ~help:"greedy runs executed"

let c_rounds =
  Obs.Registry.counter "geo_greedy.rounds"
    ~help:"greedy insertion rounds across all runs (= sum of iterations)"

let c_seeds =
  Obs.Registry.counter "geo_greedy.seeds"
    ~help:"boundary seed points inserted before the greedy loop"

let c_rescans =
  Obs.Registry.counter "geo_greedy.champion_rescans"
    ~help:"champion cache rescans after polytope updates"

let c_lp_fallbacks =
  Obs.Registry.counter "geo_greedy.lp_fallbacks"
    ~help:"runs that blew the dual-vertex budget and fell back to the LP"

let c_tiles =
  Obs.Registry.counter "geo_greedy.kernel_tiles"
    ~help:"vertex tiles streamed by the blocked champion kernel"

let c_refused =
  Obs.Registry.counter "geo_greedy.refused"
    ~help:"candidates the admit test refused (they leave the run)"

type result = {
  order : int list;
  mrr : float;
  iterations : int;
  rescans : int;
  dual_vertices : int;
  lp_fallback_at : int option;
}

(* the first index [j] with [usable j] maximizing dimension [i]; -1 when
   none is usable *)
let first_max points usable i =
  let best = ref (-1) in
  Array.iteri
    (fun j p ->
      if usable j && (!best < 0 || p.(i) > points.(!best).(i)) then best := j)
    points;
  !best

(* one index per dimension, maximizing that dimension; duplicates
   collapsed. [pick i] is the chosen index for dimension [i], or -1 *)
let collect_seeds d pick =
  let seeds = ref [] in
  for i = d - 1 downto 0 do
    let j = pick i in
    if j >= 0 && not (List.mem j !seeds) then seeds := j :: !seeds
  done;
  !seeds

let boundary_seeds points d =
  collect_seeds d (first_max points (fun _ -> true))

(* slack of the stop test on [cr >= 1] *)
let eps = 1e-9

let run ?(use_champion_cache = true) ?max_dual_vertices ?admit ?on_step
    ~points ~k () =
  let n = Array.length points in
  if n = 0 then invalid_arg "Geo_greedy.run: empty candidate set";
  if k < 1 then invalid_arg "Geo_greedy.run: k must be positive";
  if admit <> None && max_dual_vertices <> None then
    invalid_arg "Geo_greedy.run: admit with max_dual_vertices";
  let d = Vector.dim points.(0) in
  (* [out.(j)]: [j] is no longer a candidate — selected, or refused by
     [admit]. [admitted.(j)]: [admit] accepted [j] (every [j] without an
     admit test), so it is asked at most once per candidate *)
  let out = Array.make n false in
  let admitted = Array.make n (admit = None) in
  let refused = ref 0 in
  let certify j =
    admitted.(j)
    ||
    match admit with
    | Some f when f j ->
        admitted.(j) <- true;
        true
    | _ ->
        out.(j) <- true;
        incr refused;
        false
  in
  (* [pick ()] returns the candidate it would take; a refused one leaves
     the run and the pick is retaken, so the first admitted winner is the
     one a run over the admitted candidates alone picks (they keep their
     relative order, and first-wins ties with them) *)
  let rec certified pick =
    let j = pick () in
    if j < 0 || certify j then j else certified pick
  in
  let seeds =
    collect_seeds d (fun i ->
        certified (fun () -> first_max points (fun j -> not out.(j)) i))
  in
  (* Q(S) is confined to w_i <= 1 / max_{p in seeds(S)} p_i once the seeds
     are inserted; size the artificial bounding box from the seeds actually
     taken (k < d may leave a dimension unseeded and hence unbounded by
     data — the box then correctly reports the near-1 regret of Sec. VII) *)
  let bound =
    let taken = List.filteri (fun idx _ -> idx < k) seeds in
    let worst = ref infinity in
    for i = 0 to d - 1 do
      let col =
        List.fold_left (fun acc j -> Float.max acc points.(j).(i)) 0. taken
      in
      worst := Float.min !worst (Float.max col 1e-9)
    done;
    Float.min 1e6 (1.05 /. !worst)
  in
  let dp = Dual_polytope.create ~bound ~dim:d () in
  let order = ref [] in
  let size = ref 0 in
  let rescans = ref 0 in
  (* champion.(j) = (dual vertex id, max dot) for candidate j; only
     meaningful while j is outside the selection *)
  let champion = Array.make n (-1, infinity) in
  (* Champion re-scans run through the blocked max-dot kernel (ISSUE 6):
     the candidates live in one flat matrix built once up front, the dual
     vertices come from the polytope's flat view (or a per-event scratch of
     the replacement faces), and {!Flat.champions} tiles the vertex rows so
     a tile stays in L1 while the affected candidates stream against it.
     Pool workers write only disjoint slots — [out_row]/[out_val]/[champion]
     are indexed by candidate — and read structures never mutated inside a
     parallel region, so the results are identical for every pool width.
     The [rescans] diagnostic counter is accumulated per-chunk (a shared
     [incr] would race across domains). *)
  let cands = Flat.of_rows points in
  let targets = Array.make n 0 in
  let out_row = Array.make n 0 in
  let out_val = Array.make n 0. in
  (* collect the stale candidates into a prefix of [targets] *)
  let gather_targets pred =
    let nt = ref 0 in
    for j = 0 to n - 1 do
      if (not out.(j)) && pred j then begin
        targets.(!nt) <- j;
        incr nt
      end
    done;
    !nt
  in
  (* cost hint: one target dots every vertex row *)
  let scan_cost m = 4. *. float_of_int ((m + 1) * d) in
  let rescan_targets ~vset ~vids nt =
    if nt > 0 then begin
      let scanned =
        Pool.map_reduce
          ~cost:(scan_cost (Flat.rows vset))
          ~lo:0 ~hi:nt
          ~map:(fun a b ->
            let tiles =
              Flat.champions ~vertices:vset ~cands targets ~tlo:a ~thi:b
                ~out_row ~out_val
            in
            Obs.Counter.add c_tiles tiles;
            for ti = a to b - 1 do
              let j = targets.(ti) in
              champion.(j) <- (vids.(out_row.(j)), out_val.(j))
            done;
            b - a)
          ~reduce:( + ) 0
      in
      rescans := !rescans + scanned
    end
  in
  let full_rescan_all () =
    let nt = gather_targets (fun _ -> true) in
    let vset, vids = Dual_polytope.flat_view dp in
    rescan_targets ~vset ~vids nt
  in
  let scratch = Flat.create ~dim:d () in
  let apply_event ev =
    if use_champion_cache then begin
      match ev.Dd.removed with
      | [] -> () (* redundant constraint: no champion can be invalidated *)
      | removed_list ->
          (* membership probes run n times per event: an int-keyed table
             beats the former O(n * |removed|) [List.mem] scan *)
          let removed = Hashtbl.create (2 * List.length removed_list) in
          List.iter (fun id -> Hashtbl.replace removed id ()) removed_list;
          let nt =
            gather_targets (fun j -> Hashtbl.mem removed (fst champion.(j)))
          in
          if nt > 0 then begin
            match ev.Dd.created @ ev.Dd.touched with
            | [] ->
                (* defensive: the event reported no replacement faces —
                   rescan the stale candidates against the whole polytope *)
                let vset, vids = Dual_polytope.flat_view dp in
                rescan_targets ~vset ~vids nt
            | fresh ->
                Flat.clear scratch;
                List.iter (fun v -> Flat.push_row scratch v.Dd.w) fresh;
                let vids =
                  Array.of_list (List.map (fun v -> v.Dd.id) fresh)
                in
                rescan_targets ~vset:scratch ~vids nt
          end
    end
    else full_rescan_all ()
  in
  let insert j =
    out.(j) <- true;
    order := j :: !order;
    incr size;
    let ev = Dual_polytope.insert dp points.(j) in
    apply_event ev
  in
  (* seed with boundary points (at most k of them) *)
  let rec seed = function
    | [] -> ()
    | j :: rest ->
        if !size < k then begin
          out.(j) <- true;
          order := j :: !order;
          incr size;
          ignore (Dual_polytope.insert dp points.(j));
          seed rest
        end
  in
  seed seeds;
  Obs.Counter.incr c_runs;
  Obs.Counter.add c_seeds !size;
  (* champions start from a full scan once the seeds are in *)
  full_rescan_all ();
  rescans := 0;
  (* greedy iterations: the candidate with the largest champion value has the
     smallest critical ratio (cr = 1 / max w.q) *)
  let iterations = ref 0 in
  let best_remaining () =
    certified (fun () ->
        let best = ref (-1) in
        for j = 0 to n - 1 do
          if
            (not out.(j))
            && (!best < 0 || snd champion.(j) > snd champion.(!best))
          then best := j
        done;
        !best)
  in
  let current_mrr () =
    let j = best_remaining () in
    if j < 0 then 0.
    else
      let m = snd champion.(j) in
      if m <= 1. then 0. else 1. -. (1. /. m)
  in
  let notify () =
    match on_step with
    | None -> ()
    | Some f -> f ~size:!size ~mrr:(current_mrr ())
  in
  notify ();
  (* Hybrid fallback: when the dual polytope grows past [max_dual_vertices]
     (the face-count explosion of high dimensions — see EXPERIMENTS.md), the
     remaining iterations answer line 6 of Algorithm 1 with the baseline's
     per-candidate LP instead. Same greedy choices, same output. *)
  let vertex_budget_blown () =
    match max_dual_vertices with
    | None -> false
    | Some limit -> Dual_polytope.num_vertices dp > limit
  in
  let lp_fallback_at = ref None in
  let lp_mrr = ref None in
  let run_lp_phase () =
    lp_fallback_at := Some !size;
    let selected () = List.rev_map (fun j -> points.(j)) !order in
    let lp_stop = ref false in
    while (not !lp_stop) && !size < k do
      let sel = selected () in
      (* per-candidate critical-ratio LPs are independent (the simplex has
         no shared state); deterministic argmin: each chunk keeps its
         earliest minimum, the left-to-right reduce keeps the earlier chunk
         on ties — exactly the sequential first-wins scan *)
      let best =
        (* cost hint: one simplex solve per candidate, ~hundreds of µs *)
        Pool.map_reduce ~cost:3e5 ~lo:0 ~hi:n
          ~map:(fun a b ->
            let best = ref None in
            for j = a to b - 1 do
              if not out.(j) then begin
                let cr, _ =
                  Kregret_lp.Regret_lp.critical_ratio ~selected:sel points.(j)
                in
                match !best with
                | Some (_, bcr) when bcr <= cr -> ()
                | _ -> best := Some (j, cr)
              end
            done;
            !best)
          ~reduce:(fun acc chunk ->
            match (acc, chunk) with
            | None, c -> c
            | a, None -> a
            | Some (_, bcr), Some (_, cr) when cr < bcr -> chunk
            | a, _ -> a)
          None
      in
      let best = ref best in
      match !best with
      | None -> lp_stop := true
      | Some (_, cr) when cr >= 1. -. eps ->
          lp_mrr := Some (Float.max 0. (1. -. cr));
          lp_stop := true
      | Some (j, _) ->
          incr iterations;
          out.(j) <- true;
          order := j :: !order;
          incr size;
          (match on_step with
          | None -> ()
          | Some f ->
              (* prefix mrr via one LP sweep would be costly; report the
                 exact value lazily only when a consumer asked for steps *)
              let sel = List.rev_map (fun i -> points.(i)) !order in
              let m =
                Kregret_lp.Regret_lp.max_regret_ratio
                  ~data:(Array.to_list points) ~selected:sel ()
              in
              f ~size:!size ~mrr:m)
    done;
    if !lp_mrr = None then begin
      let sel = selected () in
      lp_mrr :=
        Some
          (Kregret_lp.Regret_lp.max_regret_ratio ~data:(Array.to_list points)
             ~selected:sel ())
    end
  in
  let stop = ref false in
  while (not !stop) && !size < k do
    if vertex_budget_blown () then begin
      run_lp_phase ();
      stop := true
    end
    else begin
      let j = best_remaining () in
      if j < 0 then stop := true
      else if snd champion.(j) <= 1. +. eps then stop := true (* cr >= 1 *)
      else begin
        incr iterations;
        insert j;
        notify ()
      end
    end
  done;
  let mrr = match !lp_mrr with Some m -> m | None -> current_mrr () in
  Obs.Counter.add c_rounds !iterations;
  Obs.Counter.add c_rescans !rescans;
  Obs.Counter.add c_refused !refused;
  if !lp_fallback_at <> None then Obs.Counter.incr c_lp_fallbacks;
  {
    order = List.rev !order;
    mrr;
    iterations = !iterations;
    rescans = !rescans;
    dual_vertices = Dual_polytope.num_vertices dp;
    lp_fallback_at = !lp_fallback_at;
  }
