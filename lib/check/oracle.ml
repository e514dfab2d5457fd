module Vector = Kregret_geom.Vector
module Dataset = Kregret_dataset.Dataset
module Skyline = Kregret_skyline.Skyline
module Happy = Kregret_happy.Happy
module Extreme = Kregret_hull.Extreme
module Pool = Kregret_parallel.Pool
module Geo_greedy = Kregret.Geo_greedy
module Greedy_lp = Kregret.Greedy_lp
module Stored_list = Kregret.Stored_list
module Optimal2d = Kregret.Optimal2d
module Mrr = Kregret.Mrr
module Invariants = Kregret.Invariants

type suite = All | Dynamic_only | Approx_only | Rrr_only

type config = { samples : int; jobs_hi : int; suite : suite }

let default = { samples = 512; jobs_hi = 2; suite = All }

type failure = { check : string; message : string }

let pp_failure ppf f = Format.fprintf ppf "[%s] %s" f.check f.message

let check_names =
  [
    "skyline-agree";
    "happy-agree";
    "lemma3-inclusion";
    "selection-valid";
    "geo-vs-greedy-mrr";
    "stored-prefix";
    "lazy-funnel";
    "mrr-monotone-k";
    "evaluators-agree";
    "sampled-bound";
    "mrr-in-unit";
    "optimal2d";
    "jobs-invariance";
    "serve";
    "serve-protocol";
    "dynamic";
    "approx-kernel";
    "approx-bound";
    "approx-monotone";
    "approx-jobs";
    "rrr-structure";
    "rrr-monotone";
    "rrr-whole";
    "rrr-2d";
    "rrr-witness";
    "rrr-net";
    "rrr-sample";
    "rrr-jobs";
    "rrr-greedy";
    "rrr-serve";
    "exception";
  ]

let tag check msgs = List.map (fun message -> { check; message }) msgs
let eps = Tolerance.tie

(* Run [f] under a global pool of width [jobs], restoring the caller's
   width afterwards. *)
let with_jobs jobs f =
  let before = Pool.get_jobs () in
  Pool.set_jobs jobs;
  Fun.protect ~finally:(fun () -> Pool.set_jobs before) f

(* Everything the pipeline computes on one instance; the jobs-invariance
   check recomputes a second copy at a different pool width. *)
type run = {
  sky_idx : int array;
  happy_idx : int array;
  geo : Geo_greedy.result;
  sampled : float;
}

let pipeline_run ~samples inst =
  let points = inst.Instance.points in
  let sky_idx = Skyline.sfs points in
  let sky = Array.map (fun i -> points.(i)) sky_idx in
  let happy_idx = Happy.happy_points sky in
  let happy = Array.map (fun i -> sky.(i)) happy_idx in
  let geo = Geo_greedy.run ~points:happy ~k:inst.Instance.k () in
  let selected = List.map (fun i -> happy.(i)) geo.Geo_greedy.order in
  let sampled =
    Mrr.sampled ~rng:(Instance.rng inst) ~samples
      ~data:(Array.to_list points) ~selected
  in
  { sky_idx; happy_idx; geo; sampled }

let pp_order order = String.concat "," (List.map string_of_int order)

let check_inner cfg inst =
  let points = inst.Instance.points in
  let k = inst.Instance.k in
  let data = Array.to_list points in
  let r1 = with_jobs 1 (fun () -> pipeline_run ~samples:cfg.samples inst) in
  let sky = Array.map (fun i -> points.(i)) r1.sky_idx in
  let happy = Array.map (fun i -> sky.(i)) r1.happy_idx in
  let nh = Array.length happy in
  let geo = r1.geo in
  let failures = ref [] in
  let record check msgs = failures := !failures @ tag check msgs in

  (* skyline-agree *)
  let naive_idx = with_jobs 1 (fun () -> Skyline.naive points) in
  if naive_idx <> r1.sky_idx then
    record "skyline-agree"
      [
        Printf.sprintf "naive skyline [%s] and SFS skyline [%s] differ"
          (pp_order (Array.to_list naive_idx))
          (pp_order (Array.to_list r1.sky_idx));
      ];

  (* happy-agree: the certified, probe-ordered flat screen against the
     boxed per-pair reference, index for index *)
  let reference =
    let candidates = Array.to_list sky in
    List.filter
      (fun i -> Happy.is_happy ~candidates sky.(i))
      (List.init (Array.length sky) Fun.id)
  in
  if Array.to_list r1.happy_idx <> reference then
    record "happy-agree"
      [
        Printf.sprintf "happy screen [%s] and is_happy reference [%s] differ"
          (pp_order (Array.to_list r1.happy_idx))
          (pp_order reference);
      ];

  (* lemma3-inclusion *)
  let conv = with_jobs 1 (fun () -> Extreme.extreme_points (Array.to_list happy)) in
  record "lemma3-inclusion"
    (Invariants.subset_by_value ~eps:0. ~what:"D_conv within D_happy" conv
       ~of_:(Array.to_list happy));
  record "lemma3-inclusion"
    (Invariants.subset_by_value ~eps:0. ~what:"D_happy within D_sky"
       (Array.to_list happy) ~of_:(Array.to_list sky));
  record "lemma3-inclusion"
    (Invariants.subset_by_value ~eps:0. ~what:"D_sky within D"
       (Array.to_list sky) ~of_:data);

  (* greedy cross-check *)
  let lp = with_jobs 1 (fun () -> Greedy_lp.run ~points:happy ~k ()) in
  record "selection-valid"
    (Invariants.valid_selection ~what:"GeoGreedy selection" ~n:nh ~k
       geo.Geo_greedy.order);
  record "selection-valid"
    (Invariants.valid_selection ~what:"Greedy selection" ~n:nh ~k
       lp.Greedy_lp.order);
  record "geo-vs-greedy-mrr"
    (Invariants.agree ~eps ~what:"GeoGreedy mrr vs Greedy mrr"
       geo.Geo_greedy.mrr lp.Greedy_lp.mrr);

  (* stored list: prefix property against fresh GeoGreedy runs *)
  let sl =
    with_jobs 1 (fun () -> Stored_list.preprocess ~max_length:(max k 8) happy)
  in
  let answer = Stored_list.query sl ~k in
  record "stored-prefix"
    (Invariants.prefix_of ~what:"StoredList answer vs GeoGreedy order"
       ~prefix:answer geo.Geo_greedy.order);
  if List.length answer <> List.length geo.Geo_greedy.order then
    record "stored-prefix"
      [
        Printf.sprintf "StoredList answer [%s] and GeoGreedy order [%s] have different lengths"
          (pp_order answer) (pp_order geo.Geo_greedy.order);
      ];
  record "stored-prefix"
    (Invariants.agree ~eps ~what:"StoredList mrr vs GeoGreedy mrr"
       (Stored_list.mrr_at sl ~k) geo.Geo_greedy.mrr);
  if k >= 2 then begin
    let k2 = max 1 (k / 2) in
    let geo2 = with_jobs 1 (fun () -> Geo_greedy.run ~points:happy ~k:k2 ()) in
    let answer2 = Stored_list.query sl ~k:k2 in
    record "stored-prefix"
      (Invariants.prefix_of
         ~what:(Printf.sprintf "StoredList answer at k=%d vs fresh GeoGreedy run" k2)
         ~prefix:answer2 geo2.Geo_greedy.order);
    if List.length answer2 <> List.length geo2.Geo_greedy.order then
      record "stored-prefix"
        [
          Printf.sprintf
            "StoredList answer at k=%d [%s] and fresh GeoGreedy order [%s] have different lengths"
            k2 (pp_order answer2) (pp_order geo2.Geo_greedy.order);
        ];
    record "stored-prefix"
      (Invariants.agree ~eps
         ~what:(Printf.sprintf "StoredList mrr at k=%d vs fresh GeoGreedy mrr" k2)
         (Stored_list.mrr_at sl ~k:k2) geo2.Geo_greedy.mrr)
  end;

  (* lazy-funnel: the production funnel certifies only the happy points
     GeoGreedy reaches. Its full list, as input rows, must be the eager
     composition's (the whole happy screen, then StoredList over the happy
     rows) entry for entry and mrr bit for bit, at every pool width; an
     empty happy set gives no list on both sides *)
  let as_rows stored rows =
    match stored with
    | None -> ([], [])
    | Some s ->
        ( List.map (fun e -> rows.(e)) (Stored_list.order s),
          List.init (Stored_list.length s) (fun i ->
              Int64.bits_of_float (Stored_list.mrr_at s ~k:(i + 1))) )
  in
  let eager_order, eager_bits =
    as_rows
      (with_jobs 1 (fun () ->
           if nh = 0 then None else Some (Stored_list.preprocess happy)))
      (Array.map (fun h -> r1.sky_idx.(h)) r1.happy_idx)
  in
  List.iter
    (fun jobs ->
      let f = with_jobs jobs (fun () -> Stored_list.funnel points) in
      let order, bits =
        as_rows f.Stored_list.stored f.Stored_list.sky
      in
      if f.Stored_list.sky <> r1.sky_idx || order <> eager_order then
        record "lazy-funnel"
          [
            Printf.sprintf
              "jobs=%d: funnel order [%s], eager composition [%s]" jobs
              (pp_order order) (pp_order eager_order);
          ]
      else if bits <> eager_bits then
        record "lazy-funnel"
          [
            Printf.sprintf
              "jobs=%d: funnel and eager composition differ in an mrr bit"
              jobs;
          ])
    (if cfg.jobs_hi > 1 then [ 1; cfg.jobs_hi ] else [ 1 ]);

  (* mrr monotone non-increasing in k along the materialized list *)
  let prefix_mrrs =
    List.init (Stored_list.length sl) (fun i -> Stored_list.mrr_at sl ~k:(i + 1))
  in
  record "mrr-monotone-k"
    (Invariants.monotone_nonincreasing ~eps ~what:"materialized mrr vs k"
       prefix_mrrs);

  (* evaluators on the final selection over the full data *)
  let selected = List.map (fun i -> happy.(i)) geo.Geo_greedy.order in
  let exact = with_jobs 1 (fun () -> Mrr.geometric ~data ~selected) in
  let lp_value = with_jobs 1 (fun () -> Mrr.lp ~data ~selected) in
  record "evaluators-agree"
    (Invariants.agree ~eps ~what:"Mrr.geometric vs Mrr.lp" exact lp_value);
  record "sampled-bound"
    (Invariants.at_most ~eps ~what:"Mrr.sampled vs Mrr.geometric" ~hi:exact
       r1.sampled);
  record "mrr-in-unit"
    (Invariants.within_unit ~eps ~what:"GeoGreedy mrr" geo.Geo_greedy.mrr);
  record "mrr-in-unit" (Invariants.within_unit ~eps ~what:"Mrr.geometric" exact);
  record "mrr-in-unit"
    (Invariants.within_unit ~eps ~what:"Mrr.sampled" r1.sampled);

  (* exact optimum at d = 2 *)
  if Instance.d inst = 2 then begin
    let opt = with_jobs 1 (fun () -> Optimal2d.solve ~points:happy ~k ()) in
    record "optimal2d"
      (Invariants.at_most ~eps ~what:"Optimal2d mrr vs GeoGreedy mrr"
         ~hi:geo.Geo_greedy.mrr opt.Optimal2d.mrr);
    record "optimal2d"
      (Invariants.at_most ~eps ~what:"Optimal2d mrr vs Greedy mrr"
         ~hi:lp.Greedy_lp.mrr opt.Optimal2d.mrr);
    let opt_selected = List.map (fun i -> happy.(i)) opt.Optimal2d.order in
    record "optimal2d"
      (Invariants.agree ~eps ~what:"Optimal2d mrr vs its own selection's mrr"
         opt.Optimal2d.mrr
         (with_jobs 1 (fun () ->
              Mrr.geometric ~data:(Array.to_list happy) ~selected:opt_selected)));
    record "optimal2d"
      (Invariants.valid_selection ~what:"Optimal2d selection" ~n:nh ~k
         opt.Optimal2d.order)
  end;

  (* pool-width invariance: the determinism contract of DESIGN.md §10.
     Besides [jobs_hi], an oversubscribed width past
     [Domain.recommended_domain_count ()] exercises the pool's
     oversubscription cap (PR 5's inline fallback), which test_parallel.ml
     covers but the fuzzer previously never drove end to end. *)
  if cfg.jobs_hi > 1 then begin
    let capped = Domain.recommended_domain_count () + 2 in
    List.iter
      (fun jobs ->
        let r2 = with_jobs jobs (fun () -> pipeline_run ~samples:cfg.samples inst) in
        let jmsg what =
          Printf.sprintf "%s differs between jobs=1 and jobs=%d" what jobs
        in
        if r2.sky_idx <> r1.sky_idx then record "jobs-invariance" [ jmsg "skyline" ];
        if r2.happy_idx <> r1.happy_idx then
          record "jobs-invariance" [ jmsg "happy set" ];
        if r2.geo.Geo_greedy.order <> geo.Geo_greedy.order then
          record "jobs-invariance" [ jmsg "GeoGreedy order" ];
        if not (Float.equal r2.geo.Geo_greedy.mrr geo.Geo_greedy.mrr) then
          record "jobs-invariance" [ jmsg "GeoGreedy mrr" ];
        if r2.geo.Geo_greedy.rescans <> geo.Geo_greedy.rescans then
          record "jobs-invariance" [ jmsg "GeoGreedy rescan count" ];
        if not (Float.equal r2.sampled r1.sampled) then
          record "jobs-invariance" [ jmsg "sampled mrr" ])
      (List.sort_uniq compare [ cfg.jobs_hi; capped ])
  end;

  (* the serving subsystem answers with the offline bits, over the wire
     (builds run on the server's single worker thread, so the pool region
     never nests with ours) *)
  List.iter
    (fun (check, message) -> failures := !failures @ [ { check; message } ])
    (with_jobs 1 (fun () -> Serve_oracle.check inst));
  !failures

(* the dynamic and approx oracles manage their own pool widths — not
   wrapped *)
let check_dynamic cfg inst =
  List.map
    (fun (check, message) -> { check; message })
    (Dynamic_oracle.check ~jobs_hi:cfg.jobs_hi inst)

let check_approx cfg inst =
  List.map
    (fun (check, message) -> { check; message })
    (Approx_oracle.check ~jobs_hi:cfg.jobs_hi inst)

let check_rrr cfg inst =
  List.map
    (fun (check, message) -> { check; message })
    (Rrr_oracle.check ~jobs_hi:cfg.jobs_hi inst)

let check_suite cfg inst =
  match cfg.suite with
  | Dynamic_only -> check_dynamic cfg inst
  | Approx_only -> check_approx cfg inst
  | Rrr_only -> check_rrr cfg inst
  | All ->
      check_inner cfg inst @ check_dynamic cfg inst @ check_approx cfg inst
      @ check_rrr cfg inst

module Obs = Kregret_obs

let c_checks =
  Obs.Registry.counter "oracle.checks" ~help:"oracle verdicts computed"

let c_failures =
  Obs.Registry.counter "oracle.failures"
    ~help:"individual check failures across all verdicts"

let check ?(config = default) inst =
  Obs.Counter.incr c_checks;
  let failures =
    Obs.Span.with_ "oracle.check" (fun () ->
        try check_suite config inst
        with e ->
          [
            {
              check = "exception";
              message =
                Printf.sprintf "%s raised on %s" (Printexc.to_string e)
                  (Instance.describe inst);
            };
          ])
  in
  Obs.Counter.add c_failures (List.length failures);
  failures
