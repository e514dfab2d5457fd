module Vector = Kregret_geom.Vector
module Flat = Kregret_geom.Flat
module Kernel = Kregret_approx.Kernel
module Pool = Kregret_parallel.Pool
module Skyline = Kregret_skyline.Skyline
module Mrr = Kregret.Mrr
module Rrr = Kregret_rrr.Rrr
module Csv_io = Kregret_dataset.Csv_io
module Serve = Kregret_serve

let tol = Tolerance.tie

let with_jobs jobs f =
  let before = Pool.get_jobs () in
  Pool.set_jobs jobs;
  Fun.protect ~finally:(fun () -> Pool.set_jobs before) f

let pp_ids ids = String.concat "," (List.map string_of_int (Array.to_list ids))
let pp_order order = String.concat "," (List.map string_of_int order)

(* Rebuild the engine's direction net independently: the largest grid
   resolution whose net fits the default budget, never below the
   eps = 1 minimum, thinned to the budget by the engine's stride rule —
   materialized as plain row vectors. *)
let net_of ~d =
  let budget = Rrr.default_budget in
  let b = float_of_int budget in
  let m = ref (Kernel.resolution_for ~d ~eps:1.0) in
  while Kernel.net_size ~d ~resolution:(!m + 1) <= b do
    incr m
  done;
  let eps = float_of_int (d - 1) /. (2. *. float_of_int !m) in
  let nt = Kernel.net ~d ~eps in
  let nd = Flat.rows nt.Kernel.dirs in
  let stride = if nd <= budget then 1 else ((nd + budget) - 1) / budget in
  let rows = ref [] in
  let j = ref 0 in
  while !j < nd do
    rows := Flat.row nt.Kernel.dirs !j :: !rows;
    j := !j + stride
  done;
  (!m, Array.of_list (List.rev !rows))

(* ---- independent rank evaluators ----------------------------------------- *)

(* Direct dot-evaluated rank of [set] under [w] with a tie margin:
   1 + #{q : w.q > member-max + margin}. [Vector.dot] folds coordinates
   in the same order as the flat kernel's [Flat.dot], so at margin 0
   this is bit-identical to the engine's [rank_under]. *)
let rank_margin ~points ~set ~margin w =
  let best = ref (Vector.dot points.(set.(0)) w) in
  for j = 1 to Array.length set - 1 do
    let v = Vector.dot points.(set.(j)) w in
    if not (!best >= v) then best := v
  done;
  let thr = !best +. margin in
  let beaten = ref 0 in
  Array.iter (fun p -> if Vector.dot p w > thr then incr beaten) points;
  1 + !beaten

(* At d = 2 a (point, member) pair's beat predicate over w = (t, 1-t) is
   either constant on (0, 1) or flips once at its crossing parameter.
   The classification mirrors the engine's float-edge rules with the
   same crossing formula (same floats), but nothing else is shared: the
   evaluation below re-counts every cell of the arrangement from the
   classifications, where the engine sweeps batched events over running
   counters. *)
type pair2 =
  | Constant of bool
  | Flip of float * bool  (* crossing parameter, pre-crossing state *)

let classify_2d ~points ~set =
  let n = Array.length points in
  let m = Array.length set in
  Array.init (n * m) (fun p ->
      let q = points.(p / m) and s = points.(set.(p mod m)) in
      let a = q.(0) -. s.(0) and b = q.(1) -. s.(1) in
      let beat0 = b > 0. || (b = 0. && a > 0.) in
      if (a > 0. && b < 0.) || (a < 0. && b > 0.) then begin
        let ts = b /. (b -. a) in
        if ts <= 0. then Constant (not beat0)
        else if ts >= 1. then Constant beat0
        else Flip (ts, beat0)
      end
      else Constant beat0)

(* Exact max rank by brute force: every crossing parameter is a cut;
   between consecutive cuts every pair state is constant, classified by
   which side of the cell its crossing lies on (an exact float
   comparison — no representative point inside the cell is ever
   evaluated, so ULP-wide cells are handled exactly). *)
let arrangement_max_2d ~points ~set =
  let n = Array.length points in
  let m = Array.length set in
  let pairs = classify_2d ~points ~set in
  let cuts =
    Array.fold_left
      (fun acc p -> match p with Constant _ -> acc | Flip (ts, _) -> ts :: acc)
      [ 0.; 1. ] pairs
    |> List.sort_uniq compare
    |> Array.of_list
  in
  let best = ref 0 in
  for c = 0 to Array.length cuts - 2 do
    let th = cuts.(c + 1) in
    let full = ref 0 in
    for i = 0 to n - 1 do
      let all = ref true in
      let j = ref 0 in
      while !all && !j < m do
        (match pairs.((i * m) + !j) with
        | Constant b -> if not b then all := false
        | Flip (ts, pre) ->
            let b = if ts >= th then pre else not pre in
            if not b then all := false);
        incr j
      done;
      if !all then incr full
    done;
    if 1 + !full > !best then best := 1 + !full
  done;
  !best

(* ---- the oracle ----------------------------------------------------------- *)

let check ?(jobs_hi = 2) inst =
  let points = inst.Instance.points in
  let n = Array.length points in
  let d = Instance.d inst in
  let k = inst.Instance.k in
  let failures = ref [] in
  let record check msgs =
    failures := !failures @ List.map (fun m -> (check, m)) msgs
  in
  (* enough greedy depth to make the monotonicity and prefix checks
     meaningful without paying a full-candidate build on every instance *)
  let cap = max k 6 in
  let eng = with_jobs 1 (fun () -> Rrr.build ~max_size:cap points) in
  let order = Rrr.order eng in
  let bounds = Rrr.bounds eng in
  let size = Rrr.size eng in
  let cands = Rrr.cand_ids eng in

  (* rrr-structure *)
  begin
    let sky_ref = with_jobs 1 (fun () -> Skyline.naive points) in
    if Rrr.sky_ids eng <> sky_ref then
      record "rrr-structure"
        [
          Printf.sprintf "engine skyline [%s], independent naive [%s]"
            (pp_ids (Rrr.sky_ids eng)) (pp_ids sky_ref);
        ];
    (* the default candidate pool IS the skyline (rank-complete; the
       happy funnel is not) *)
    if cands <> sky_ref then
      record "rrr-structure"
        [
          Printf.sprintf "engine candidates [%s], independent skyline [%s]"
            (pp_ids cands) (pp_ids sky_ref);
        ];
    if size <> Array.length bounds then
      record "rrr-structure"
        [
          Printf.sprintf "%d selected rows but %d certified bounds" size
            (Array.length bounds);
        ];
    if size > min cap (Array.length cands) || size < 1 then
      record "rrr-structure"
        [
          Printf.sprintf "selected %d rows from %d candidates at max_size %d"
            size (Array.length cands) cap;
        ];
    let in_cands = Hashtbl.create (Array.length cands) in
    Array.iter (fun id -> Hashtbl.replace in_cands id ()) cands;
    let seen = Hashtbl.create size in
    Array.iter
      (fun id ->
        if not (Hashtbl.mem in_cands id) then
          record "rrr-structure"
            [ Printf.sprintf "selected row %d is not a candidate" id ];
        if Hashtbl.mem seen id then
          record "rrr-structure"
            [ Printf.sprintf "row %d selected twice: [%s]" id (pp_ids order) ];
        Hashtbl.replace seen id ())
      order;
    Array.iteri
      (fun i (b : Rrr.rank) ->
        if b.Rrr.lo < 1 || b.Rrr.lo > b.Rrr.hi || b.Rrr.hi > n then
          record "rrr-structure"
            [
              Printf.sprintf "prefix %d: interval [%d, %d] outside [1, %d]"
                (i + 1) b.Rrr.lo b.Rrr.hi n;
            ];
        if b.Rrr.exact <> (b.Rrr.lo = b.Rrr.hi) then
          record "rrr-structure"
            [
              Printf.sprintf "prefix %d: exact=%b but interval is [%d, %d]"
                (i + 1) b.Rrr.exact b.Rrr.lo b.Rrr.hi;
            ];
        if d <= 2 && not b.Rrr.exact then
          record "rrr-structure"
            [ Printf.sprintf "prefix %d: inexact interval at d = %d" (i + 1) d ])
      bounds;
    List.iter
      (fun k' ->
        let sel, r = Rrr.query eng ~k:k' in
        let take = min k' size in
        let want = Array.to_list (Array.sub order 0 take) in
        if sel <> want then
          record "rrr-structure"
            [
              Printf.sprintf "query k=%d returned [%s], greedy prefix is [%s]"
                k' (pp_order sel) (pp_order want);
            ];
        if r <> bounds.(take - 1) then
          record "rrr-structure"
            [
              Printf.sprintf
                "query k=%d bound [%d, %d] differs from stored prefix bound \
                 [%d, %d]"
                k' r.Rrr.lo r.Rrr.hi bounds.(take - 1).Rrr.lo
                bounds.(take - 1).Rrr.hi;
            ])
      (List.sort_uniq compare [ 1; k ]);
    (match Rrr.size_for eng ~target:bounds.(size - 1).Rrr.hi with
    | None ->
        record "rrr-structure"
          [
            Printf.sprintf "size_for rejects the achieved target %d"
              bounds.(size - 1).Rrr.hi;
          ]
    | Some s ->
        if
          bounds.(s - 1).Rrr.hi > bounds.(size - 1).Rrr.hi
          || (s > 1 && bounds.(s - 2).Rrr.hi <= bounds.(size - 1).Rrr.hi)
        then
          record "rrr-structure"
            [ Printf.sprintf "size_for returned %d, not the first prefix" s ]);
    if Rrr.size_for eng ~target:0 <> None then
      record "rrr-structure" [ "size_for found a prefix with hi <= 0" ]
  end;

  (* rrr-monotone: lo only — hi can loosen as the dual polytope gains
     facets, and does in practice *)
  for i = 1 to size - 1 do
    if bounds.(i).Rrr.lo > bounds.(i - 1).Rrr.lo then
      record "rrr-monotone"
        [
          Printf.sprintf "lo rose from %d to %d at prefix %d"
            bounds.(i - 1).Rrr.lo bounds.(i).Rrr.lo (i + 1);
        ]
  done;

  (* rrr-whole: every preference's maximum score is attained on the
     skyline (any maximizer's dominator scores at least as much under
     w >= 0), so nothing strictly outranks the whole skyline anywhere —
     an exact theorem, unlike the happy set, whose eps-tolerant
     subjugation filter may drop a hull vertex that then gets beaten by
     a sliver. Skipped at d >= 3 for large skylines (the dual polytope
     of hundreds of halfspaces is the one genuinely expensive object in
     this tier). *)
  let sky_all = with_jobs 1 (fun () -> Skyline.naive points) in
  if d <= 2 || Array.length sky_all <= 24 then begin
    let r = with_jobs 1 (fun () -> Rrr.max_rank ~points sky_all) in
    if r.Rrr.lo <> 1 then
      record "rrr-whole"
        [
          Printf.sprintf "whole skyline has realized rank %d, expected 1"
            r.Rrr.lo;
        ];
    if d <= 2 && r.Rrr.hi <> 1 then
      record "rrr-whole"
        [ Printf.sprintf "whole skyline certified hi %d at d <= 2" r.Rrr.hi ]
  end;

  (* rrr-2d: independent arrangement agreement, prefix by prefix until
     the per-instance brute-force budget runs out (small instances are
     covered in full; n = 400 covers the first several prefixes) *)
  if d = 2 then begin
    let budget = ref 30_000_000 in
    (try
       Array.iteri
         (fun i (b : Rrr.rank) ->
           let m = i + 1 in
           let cost = n * m * n * m in
           if cost > !budget then raise Exit;
           budget := !budget - cost;
           let set = Array.sub order 0 m in
           let brute = arrangement_max_2d ~points ~set in
           if brute <> b.Rrr.lo then
             record "rrr-2d"
               [
                 Printf.sprintf
                   "prefix %d: engine sweep says %d, cell-by-cell \
                    arrangement says %d"
                   m b.Rrr.lo brute;
               ];
           (* the witness attains the reported rank up to dot-rounding
              of ties: strict and loose tie margins sandwich it *)
           let strict = rank_margin ~points ~set ~margin:tol b.Rrr.witness in
           let loose =
             rank_margin ~points ~set ~margin:(-.tol) b.Rrr.witness
           in
           if strict > b.Rrr.lo || loose < b.Rrr.lo then
             record "rrr-2d"
               [
                 Printf.sprintf
                   "prefix %d: witness (%.17g, %.17g) evaluates to rank \
                    [%d, %d], engine certified %d"
                   m b.Rrr.witness.(0) b.Rrr.witness.(1) strict loose b.Rrr.lo;
               ])
         bounds
     with Exit -> ())
  end;

  (* rrr-witness / rrr-net: at d >= 3 the witness and the whole net are
     re-evaluated with Vector.dot — bit-identical folds, so equality is
     exact, not tolerant *)
  if d >= 3 then begin
    Array.iteri
      (fun i (b : Rrr.rank) ->
        let set = Array.sub order 0 (i + 1) in
        let r = rank_margin ~points ~set ~margin:0. b.Rrr.witness in
        if r <> b.Rrr.lo then
          record "rrr-witness"
            [
              Printf.sprintf
                "prefix %d: witness direction re-evaluates to rank %d, \
                 engine certified lo %d"
                (i + 1) r b.Rrr.lo;
            ])
      bounds;
    let final = bounds.(size - 1) in
    let set = order in
    let m_ref, nets = net_of ~d in
    if m_ref <> Rrr.resolution eng || Array.length nets <> Rrr.directions eng
    then
      record "rrr-net"
        [
          Printf.sprintf
            "independent net has %d directions at resolution %d, engine \
             reports %d at %d"
            (Array.length nets) m_ref (Rrr.directions eng)
            (Rrr.resolution eng);
        ];
    let worst = ref 0 in
    Array.iteri
      (fun j w ->
        let r = rank_margin ~points ~set ~margin:0. w in
        if r > final.Rrr.lo then
          record "rrr-net"
            [
              Printf.sprintf
                "net direction %d realizes rank %d above the certified lo %d"
                j r final.Rrr.lo;
            ];
        if r > !worst then worst := r)
      nets;
    if !worst <> final.Rrr.lo then
      record "rrr-net"
        [
          Printf.sprintf "best net rank %d, engine certified lo %d" !worst
            final.Rrr.lo;
        ]
  end;

  (* rrr-greedy: the unselected candidates' ranks decide every pick, and
     no other check reads them. Recount every candidate's rank under
     every net direction directly — Vector.dot scores and a
     strictly-greater count, no sort — and replay the greedy: each pick
     must be the first minimizer of max_j min(cur_j, rank_j(c)) over the
     untaken candidates. Off d = 2, whose lo comes from the exact sweep,
     the running set rank's maximum is the certified lo. *)
  begin
    let nets = if d = 1 then [| [| 1.0 |] |] else snd (net_of ~d) in
    let nd = Array.length nets and nc = Array.length cands in
    let ranks = Array.make_matrix nc nd 0 in
    Array.iteri
      (fun j w ->
        let scores = Array.map (fun p -> Vector.dot p w) points in
        Array.iteri
          (fun c id ->
            let x = scores.(id) in
            let beaten = ref 0 in
            Array.iter (fun y -> if y > x then incr beaten) scores;
            ranks.(c).(j) <- 1 + !beaten)
          cands)
      nets;
    let position = Hashtbl.create nc in
    Array.iteri (fun c id -> Hashtbl.replace position id c) cands;
    let cur = Array.make nd (n + 1) and taken = Array.make nc false in
    Array.iteri
      (fun step id ->
        let best = ref max_int and best_c = ref (-1) in
        for c = 0 to nc - 1 do
          if not taken.(c) then begin
            let worst = ref 0 in
            for j = 0 to nd - 1 do
              let r = min cur.(j) ranks.(c).(j) in
              if r > !worst then worst := r
            done;
            if !worst < !best then begin
              best := !worst;
              best_c := c
            end
          end
        done;
        if !best_c < 0 || cands.(!best_c) <> id then
          record "rrr-greedy"
            [
              Printf.sprintf
                "step %d: engine picked row %d, the first minimizer of the \
                 recounted objective is row %d (objective %d)"
                (step + 1) id
                (if !best_c < 0 then -1 else cands.(!best_c))
                !best;
            ];
        (* follow the engine's pick, so later steps stay comparable *)
        match Hashtbl.find_opt position id with
        | None -> ()
        | Some c ->
            taken.(c) <- true;
            for j = 0 to nd - 1 do
              if ranks.(c).(j) < cur.(j) then cur.(j) <- ranks.(c).(j)
            done;
            let lo = Array.fold_left max 0 cur in
            if d <> 2 && lo <> bounds.(step).Rrr.lo then
              record "rrr-greedy"
                [
                  Printf.sprintf
                    "prefix %d: recounted set rank max %d, engine certified \
                     lo %d"
                    (step + 1) lo bounds.(step).Rrr.lo;
                ])
      order
  end;

  (* rrr-sample: the dual-polytope bound holds off the net too *)
  begin
    let final = bounds.(size - 1) in
    let rng = Instance.rng inst in
    for _ = 1 to 32 do
      let w = Mrr.random_direction rng d in
      let r = rank_margin ~points ~set:order ~margin:tol w in
      if r > final.Rrr.hi then
        record "rrr-sample"
          [
            Printf.sprintf
              "sampled direction realizes rank %d above the certified hi %d" r
              final.Rrr.hi;
          ]
    done
  end;

  (* rrr-jobs: the whole trajectory is bit-identical across pool widths,
     including an oversubscribed width past the recommended-domain cap *)
  if jobs_hi > 1 then begin
    let same_rank (a : Rrr.rank) (b : Rrr.rank) =
      a.Rrr.lo = b.Rrr.lo && a.Rrr.hi = b.Rrr.hi && a.Rrr.exact = b.Rrr.exact
      && Array.length a.Rrr.witness = Array.length b.Rrr.witness
      && Array.for_all2
           (fun x y ->
             Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
           a.Rrr.witness b.Rrr.witness
    in
    List.iter
      (fun (jobs, label) ->
        let eng2 = with_jobs jobs (fun () -> Rrr.build ~max_size:cap points) in
        if Rrr.order eng2 <> order then
          record "rrr-jobs"
            [
              Printf.sprintf
                "greedy order differs between jobs=1 and jobs=%d (%s)" jobs
                label;
            ]
        else begin
          let bounds2 = Rrr.bounds eng2 in
          Array.iteri
            (fun i b ->
              if not (same_rank b bounds2.(i)) then
                record "rrr-jobs"
                  [
                    Printf.sprintf
                      "prefix %d bound differs between jobs=1 and jobs=%d (%s)"
                      (i + 1) jobs label;
                  ])
            bounds
        end)
      [ (jobs_hi, "jobs_hi"); (Domain.recommended_domain_count () + 2, "capped") ]
  end;

  let ks = List.sort_uniq compare [ 1; k ] in
  (* rrr-serve: the wire verb answers with the offline engine's bits *)
  with_jobs 1 (fun () ->
      let csv = Filename.temp_file "kregret_rrr_oracle" ".csv" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove csv with Sys_error _ -> ())
        (fun () ->
          Csv_io.save csv (Instance.to_dataset inst);
          let server =
            Serve.Server.start_exn
              (Serve.Server.config
                 ~socket_path:(Serve.Server.temp_socket_path ())
                 ())
          in
          Fun.protect
            ~finally:(fun () -> Serve.Server.stop server)
            (fun () ->
              let endpoint = List.hd (Serve.Server.endpoints server) in
              match Serve.Client.connect_to endpoint with
              | Error m -> record "rrr-serve" [ "connect: " ^ m ]
              | Ok c ->
                  Fun.protect
                    ~finally:(fun () -> Serve.Client.close c)
                    (fun () ->
                      let name = "rrr-oracle" in
                      match Serve.Client.load c ~name ~path:csv with
                      | Error m -> record "rrr-serve" [ "load: " ^ m ]
                      | Ok _ -> (
                          match Serve.Client.wait_ready c ~name with
                          | Error m ->
                              record "rrr-serve" [ "wait_ready: " ^ m ]
                          | Ok () ->
                              List.iter
                                (fun k' ->
                                  let sel_ref, r_ref = Rrr.query eng ~k:k' in
                                  match
                                    Serve.Client.rank_regret c ~name ~k:k'
                                  with
                                  | Error m ->
                                      record "rrr-serve"
                                        [
                                          Printf.sprintf "rank_regret k=%d: %s"
                                            k' m;
                                        ]
                                  | Ok (sel, lo, hi, exact) ->
                                      if sel <> sel_ref then
                                        record "rrr-serve"
                                          [
                                            Printf.sprintf
                                              "k=%d: wire selection [%s], \
                                               offline [%s]"
                                              k' (pp_order sel)
                                              (pp_order sel_ref);
                                          ];
                                      if
                                        lo <> r_ref.Rrr.lo
                                        || hi <> r_ref.Rrr.hi
                                        || exact <> r_ref.Rrr.exact
                                      then
                                        record "rrr-serve"
                                          [
                                            Printf.sprintf
                                              "k=%d: wire bound [%d, %d] \
                                               exact=%b, offline [%d, %d] \
                                               exact=%b"
                                              k' lo hi exact r_ref.Rrr.lo
                                              r_ref.Rrr.hi r_ref.Rrr.exact;
                                          ])
                                ks)))));
  !failures
