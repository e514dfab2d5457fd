module Vector = Kregret_geom.Vector
module Flat = Kregret_geom.Flat
module Pool = Kregret_parallel.Pool
module Kernel = Kregret_approx.Kernel
module Pipeline = Kregret_approx.Pipeline
module Skyline = Kregret_skyline.Skyline
module Happy = Kregret_happy.Happy
module Geo_greedy = Kregret.Geo_greedy
module Mrr = Kregret.Mrr
module Invariants = Kregret.Invariants

let tol = Tolerance.tie

let with_jobs jobs f =
  let before = Pool.get_jobs () in
  Pool.set_jobs jobs;
  Fun.protect ~finally:(fun () -> Pool.set_jobs before) f

(* Direction budget per net: enough resolution to make the bound bite at
   low d without blowing the per-instance scan cost at high d. *)
let direction_budget = 1024

(* The ε the oracle checks at dimension [d]: the finest grid within the
   budget, but never coarser than ε = 1 allows (eps is capped at 1, so
   m >= ceil ((d-1)/2) always). *)
let eps_for ~d =
  if d <= 1 then 1.
  else begin
    let m_min = Kernel.resolution_for ~d ~eps:1. in
    let m = ref m_min in
    while
      Kernel.net_size ~d ~resolution:(!m + 1) <= float_of_int direction_budget
    do
      incr m
    done;
    float_of_int (d - 1) /. (2. *. float_of_int !m)
  end

let pp_ids ids =
  String.concat "," (List.map string_of_int (Array.to_list ids))

let check ?(jobs_hi = 2) inst =
  let points = inst.Instance.points in
  let n = Array.length points in
  let d = Instance.d inst in
  let k = inst.Instance.k in
  let data = Array.to_list points in
  let eps = eps_for ~d in
  let failures = ref [] in
  let record check msgs =
    failures := !failures @ List.map (fun m -> (check, m)) msgs
  in
  let p1 = with_jobs 1 (fun () -> Pipeline.run ~eps points) in
  let red = p1.Pipeline.reduction in
  let kernel_ids = red.Kernel.ids in
  let kernel_vecs = Array.map (fun id -> points.(id)) kernel_ids in
  let slack = red.Kernel.slack in

  (* approx-kernel: the kernel is a subset of the input, sorted and
     duplicate-free, and contains every per-direction maximum — with each
     winner recomputed by an independent boxed first-wins scan, so a
     broken tie rule or blocked-kernel drift in the flat scan is caught
     here *)
  Array.iteri
    (fun i id ->
      if id < 0 || id >= n then
        record "approx-kernel"
          [ Printf.sprintf "kernel id %d out of range [0, %d)" id n ];
      if i > 0 && id <= kernel_ids.(i - 1) then
        record "approx-kernel"
          [
            Printf.sprintf "kernel ids not strictly ascending at %d: [%s]" i
              (pp_ids kernel_ids);
          ])
    kernel_ids;
  if Array.length red.Kernel.winners <> red.Kernel.directions then
    record "approx-kernel"
      [
        Printf.sprintf "%d winners for %d directions"
          (Array.length red.Kernel.winners)
          red.Kernel.directions;
      ];
  let in_kernel = Hashtbl.create (Array.length kernel_ids) in
  Array.iter (fun id -> Hashtbl.replace in_kernel id ()) kernel_ids;
  Array.iteri
    (fun j w ->
      if not (Hashtbl.mem in_kernel w) then
        record "approx-kernel"
          [ Printf.sprintf "winner %d of direction %d missing from kernel" w j ])
    red.Kernel.winners;
  begin
    let nt = Kernel.net ~d ~eps in
    let mismatches = ref 0 in
    for j = 0 to Flat.rows nt.Kernel.dirs - 1 do
      if !mismatches < 3 then begin
        let w = Flat.row nt.Kernel.dirs j in
        let best = ref 0 and best_v = ref (Vector.dot points.(0) w) in
        for i = 1 to n - 1 do
          let v = Vector.dot points.(i) w in
          if not (!best_v >= v) then begin
            best := i;
            best_v := v
          end
        done;
        if !best <> red.Kernel.winners.(j) then begin
          incr mismatches;
          record "approx-kernel"
            [
              Printf.sprintf
                "direction %d: boxed reference maximum is row %d, scan kept %d"
                j !best red.Kernel.winners.(j);
            ]
        end
      end
    done
  end;

  (* approx-bound: every advertised inequality that is actually a theorem.
     mrr is computed by the exact geometric evaluator on both sides. *)
  let sel_ids, reported = Pipeline.query p1 ~k in
  if sel_ids = [] then
    record "approx-bound"
      [ "approx pipeline selected nothing on a normalized instance" ]
  else begin
    let selected = List.map (fun id -> points.(id)) sel_ids in
    let kernel_data = Array.to_list kernel_vecs in
    let mrr_true = with_jobs 1 (fun () -> Mrr.geometric ~data ~selected) in
    let mrr_kernel =
      with_jobs 1 (fun () -> Mrr.geometric ~data:kernel_data ~selected)
    in
    record "approx-bound"
      (Invariants.agree ~eps:tol
         ~what:"stored (kernel-relative) mrr vs Mrr.geometric over the kernel"
         reported mrr_kernel);
    let certificate = Float.min 1. (mrr_kernel +. slack) in
    record "approx-bound"
      (Invariants.agree ~eps:tol ~what:"Pipeline.certified_bound"
         (Pipeline.certified_bound p1 ~k)
         certificate);
    record "approx-bound"
      (Invariants.at_most ~eps:tol
         ~what:
           (Printf.sprintf
              "mrr of the approx selection over the full data vs its \
               certificate (slack %.6g)"
              slack)
         ~hi:certificate mrr_true);
    (* the ISSUE's literal form: approx cannot trail exact by more than
       the advertised bound (exact mrr >= 0 makes this a corollary of the
       certificate, and the certificate is the advertised bound) *)
    let exact =
      with_jobs 1 (fun () ->
          let sky_idx = Skyline.sfs points in
          let sky = Array.map (fun i -> points.(i)) sky_idx in
          let hap_idx = Happy.happy_points sky in
          let happy = Array.map (fun i -> sky.(i)) hap_idx in
          let geo = Geo_greedy.run ~points:happy ~k () in
          let sel = List.map (fun i -> happy.(i)) geo.Geo_greedy.order in
          Mrr.geometric ~data ~selected:sel)
    in
    record "approx-bound"
      (Invariants.at_most ~eps:tol
         ~what:"mrr(approx) - mrr(exact) vs the advertised bound"
         ~hi:(exact +. certificate) mrr_true);
    (* the kernel itself is an ε-coreset: selecting all of it leaves at
       most [slack] regret over the full data *)
    record "approx-bound"
      (Invariants.at_most ~eps:tol
         ~what:"mrr of the whole kernel over the full data vs slack"
         ~hi:slack
         (with_jobs 1 (fun () ->
              Mrr.geometric ~data ~selected:kernel_data)));
    (* sampled directional probes of the same coreset property *)
    let rng = Instance.rng inst in
    for _ = 1 to 32 do
      let w = Mrr.random_direction rng d in
      let rr =
        Mrr.regret_for_weight ~weight:w ~data ~selected:kernel_data
      in
      record "approx-bound"
        (Invariants.at_most ~eps:tol
           ~what:"sampled direction regret of the kernel vs slack" ~hi:slack rr)
    done
  end;

  (* approx-monotone: halving ε exactly doubles the grid, and the finer
     grid contains the coarser one — so the kernel grows and its coreset
     regret cannot increase. Skipped when the doubled net would blow the
     per-instance scan budget (high d). *)
  let m2 = 2 * red.Kernel.resolution in
  if Kernel.net_size ~d ~resolution:m2 *. float_of_int (n * d) <= 5e7 then begin
    let red_lo = with_jobs 1 (fun () -> Kernel.reduce ~eps:(eps /. 2.) points) in
    if red_lo.Kernel.resolution <> m2 then
      record "approx-monotone"
        [
          Printf.sprintf "eps/2 resolved to m=%d, expected %d"
            red_lo.Kernel.resolution m2;
        ];
    record "approx-monotone"
      (Invariants.at_most ~eps:0. ~what:"slack at eps/2 vs slack at eps"
         ~hi:slack red_lo.Kernel.slack);
    let in_lo = Hashtbl.create (Array.length red_lo.Kernel.ids) in
    Array.iter (fun id -> Hashtbl.replace in_lo id ()) red_lo.Kernel.ids;
    Array.iter
      (fun id ->
        if not (Hashtbl.mem in_lo id) then
          record "approx-monotone"
            [
              Printf.sprintf
                "kernel id %d at eps=%.6g missing from the eps/2 kernel" id eps;
            ])
      kernel_ids;
    let coreset_mrr ids =
      with_jobs 1 (fun () ->
          Mrr.geometric ~data
            ~selected:(Array.to_list (Array.map (fun id -> points.(id)) ids)))
    in
    record "approx-monotone"
      (Invariants.at_most ~eps:tol
         ~what:"coreset mrr at eps/2 vs coreset mrr at eps"
         ~hi:(coreset_mrr kernel_ids)
         (coreset_mrr red_lo.Kernel.ids))
  end;

  (* approx-jobs: bit-identity of the reduction and the downstream
     pipeline across pool widths, including an oversubscribed width past
     the recommended-domain cap (the PR 5 inline fallback) *)
  if jobs_hi > 1 then begin
    let widths =
      [ (jobs_hi, "jobs_hi"); (Domain.recommended_domain_count () + 2, "capped") ]
    in
    List.iter
      (fun (jobs, label) ->
        let r = with_jobs jobs (fun () -> Kernel.reduce ~eps points) in
        if r.Kernel.ids <> kernel_ids then
          record "approx-jobs"
            [
              Printf.sprintf "kernel ids differ between jobs=1 and jobs=%d (%s)"
                jobs label;
            ];
        if r.Kernel.winners <> red.Kernel.winners then
          record "approx-jobs"
            [
              Printf.sprintf
                "per-direction winners differ between jobs=1 and jobs=%d (%s)"
                jobs label;
            ];
        let p = with_jobs jobs (fun () -> Pipeline.run ~eps points) in
        if p.Pipeline.order <> p1.Pipeline.order then
          record "approx-jobs"
            [
              Printf.sprintf
                "approx pipeline order differs between jobs=1 and jobs=%d (%s)"
                jobs label;
            ];
        if
          not
            (Int64.equal
               (Int64.bits_of_float (Pipeline.mrr_at p ~k))
               (Int64.bits_of_float (Pipeline.mrr_at p1 ~k)))
        then
          record "approx-jobs"
            [
              Printf.sprintf
                "approx pipeline mrr differs between jobs=1 and jobs=%d (%s)"
                jobs label;
            ])
      widths
  end;

  !failures
