(* The ISSUE 6 gate: flat SoA kernels vs the pre-PR boxed paths.

   Two layers, one instance (anti-correlated n=10^4 d=6 k=50 at full
   scale):

   - micro: the four kernel shapes (dot sweep, dominance sweep, slack
     sweep, blocked champion scan) timed boxed vs flat;
   - end-to-end: the preprocessing pipeline (SFS skyline + happy filter)
     with local copies of the pre-PR boxed implementations — naive dot,
     boxed rows, fixed 64-chunk splitting — against the library's flat
     path, at jobs=1, plus the flat path at jobs=2 for speedup_samewidth.

   The boxed reference copies are differential oracles, kept verbatim from
   the pre-PR sources: do not "optimise" them. Every run cross-checks the
   two paths for identical results (skyline indices, happy indices,
   champion rows bit for bit, GeoGreedy selection across jobs 1/2) and the
   section exits non-zero on any mismatch — that is the equivalence assert
   the CI kernel-smoke job trips on. The perf numbers land in
   BENCH_kernel.json for the CI floor checks. *)

open Bench_util
module Vector = Kregret_geom.Vector
module Flat = Kregret_geom.Flat
module Dataset = Kregret_dataset.Dataset
module Generator = Kregret_dataset.Generator
module Rng = Kregret_dataset.Rng
module Dominance = Kregret_skyline.Dominance
module Skyline = Kregret_skyline.Skyline
module Happy = Kregret_happy.Happy
module Pool = Kregret_parallel.Pool
module Geo_greedy = Kregret.Geo_greedy

let kernel_n = ref 10_000
let kernel_k = ref 50
let kernel_d = 6

(* ---- pre-PR boxed reference paths --------------------------------------- *)

(* the pre-PR Vector.dot: naive left-to-right loop *)
let ref_dot u v =
  let acc = ref 0. in
  for i = 0 to Array.length u - 1 do
    acc := !acc +. (u.(i) *. v.(i))
  done;
  !acc

(* pre-PR SFS: boxed Dominance.compare, fixed 64-chunk splitting *)
let ref_sfs_pass points idxs =
  let window = ref [] in
  List.iter
    (fun i ->
      let excluded =
        List.exists
          (fun j ->
            match Dominance.compare points.(j) points.(i) with
            | Dominance.Dominates | Dominance.Equal -> true
            | Dominance.Dominated | Dominance.Incomparable -> false)
          !window
      in
      if not excluded then window := i :: !window)
    idxs;
  List.rev !window

let ref_sfs points =
  let n = Array.length points in
  let order = Array.init n Fun.id in
  let score = Array.map Vector.sum points in
  Array.sort (fun i j -> compare score.(j) score.(i)) order;
  let survivors =
    Pool.map_reduce
      ~chunk_size:(Pool.default_chunk_size ~n)
      ~lo:0 ~hi:n
      ~map:(fun a b ->
        let idxs = ref [] in
        for i = b - 1 downto a do
          idxs := order.(i) :: !idxs
        done;
        ref_sfs_pass points !idxs)
      ~reduce:(fun acc chunk -> acc @ chunk)
      []
  in
  let result = Array.of_list (ref_sfs_pass points survivors) in
  Array.sort compare result;
  result

(* pre-PR happy screen: boxed vertex lists, List.for_all membership *)
let ref_happy points =
  let eps = 1e-9 in
  let n = Array.length points in
  let vertex_sets = Array.make n [] in
  Pool.parallel_for
    ~chunk_size:(Pool.default_chunk_size ~n)
    ~lo:0 ~hi:n
    (fun i -> vertex_sets.(i) <- Happy.cut_box_vertices points.(i));
  let probe_order = Array.init n Fun.id in
  Array.sort
    (fun a b -> compare (Vector.sum points.(b)) (Vector.sum points.(a)))
    probe_order;
  let on_all_hyperplanes q p =
    if Vector.sum q <= 1. +. eps then abs_float (Vector.sum p -. 1.) <= eps
    else Vector.equal ~eps p q
  in
  let keep = Array.make n false in
  Pool.parallel_for
    ~chunk_size:(Pool.default_chunk_size ~n)
    ~lo:0 ~hi:n
    (fun i ->
      let p = points.(i) in
      let subjugated = ref false in
      Array.iter
        (fun j ->
          if (not !subjugated) && j <> i then begin
            let q = points.(j) in
            if
              (not (Vector.equal ~eps:0. q p))
              && List.for_all
                   (fun w -> ref_dot w p <= 1. +. eps)
                   vertex_sets.(j)
              && not (on_all_hyperplanes q p)
            then subjugated := true
          end)
        probe_order;
      keep.(i) <- not !subjugated);
  let out = ref [] in
  for i = n - 1 downto 0 do
    if keep.(i) then out := i :: !out
  done;
  Array.of_list !out

(* boxed champion scan: per candidate, fold the boxed vertex rows with the
   first-wins replacement rule — the pre-PR Geo_greedy re-scan shape *)
let ref_champions vrows crows out_row out_val =
  Array.iteri
    (fun j c ->
      let br = ref 0 and bx = ref (ref_dot vrows.(0) c) in
      for v = 1 to Array.length vrows - 1 do
        let x = ref_dot vrows.(v) c in
        if not (!bx >= x) then begin
          br := v;
          bx := x
        end
      done;
      out_row.(j) <- !br;
      out_val.(j) <- !bx)
    crows

(* ---- section ------------------------------------------------------------- *)

let fail_equivalence what =
  Fmt.epr "kernel: flat path diverges from the boxed reference (%s)@." what;
  exit 3

let with_jobs jobs f =
  let prev = Pool.get_jobs () in
  Pool.set_jobs jobs;
  Fun.protect ~finally:(fun () -> Pool.set_jobs prev) f

let run () =
  let n = !kernel_n and d = kernel_d and k = !kernel_k in
  let jobs = Pool.get_jobs () in
  header
    (Printf.sprintf
       "Flat-kernel gate -- anti-correlated n=%d d=%d, k=%d, repeat=%d \
        (ISSUE 6)"
       n d k !repeat);
  let full = Generator.by_name "anti_correlated" (Rng.create bench_seed) ~n ~d in
  let pts = full.Dataset.points in
  (* ---- micro kernels: fixed rep counts keep each timing in the ms range *)
  let fp = Flat.of_rows pts in
  let q = pts.(0) in
  let sink = ref 0. in
  (* dot_sweep: the 4-wide unrolled dot against the pre-PR naive loop on
     the same boxed rows (the other kernels below measure the layout) *)
  let t_dot_boxed =
    time_median_only (fun () ->
        for _ = 1 to 50 do
          Array.iter (fun p -> sink := !sink +. ref_dot p q) pts
        done)
  in
  let t_dot_flat =
    time_median_only (fun () ->
        for _ = 1 to 50 do
          Array.iter (fun p -> sink := !sink +. Vector.dot_unsafe p q) pts
        done)
  in
  let ndom = min n 1_500 in
  let isink = ref 0 in
  let t_dom_boxed =
    time_median_only (fun () ->
        for i = 0 to ndom - 1 do
          for j = 0 to ndom - 1 do
            if Dominance.compare pts.(i) pts.(j) = Dominance.Dominates then
              incr isink
          done
        done)
  in
  let t_dom_flat =
    time_median_only (fun () ->
        for i = 0 to ndom - 1 do
          for j = 0 to ndom - 1 do
            if Dominance.compare_flat fp i j = Dominance.Dominates then
              incr isink
          done
        done)
  in
  let slack_out = Array.make n 0. in
  let t_slack_boxed =
    time_median_only (fun () ->
        for _ = 1 to 50 do
          for i = 0 to n - 1 do
            slack_out.(i) <- ref_dot pts.(i) q -. 1.
          done
        done)
  in
  let t_slack_flat =
    time_median_only (fun () ->
        for _ = 1 to 50 do
          Flat.slacks fp ~normal:q ~offset:1. ~out:slack_out
        done)
  in
  (* champion scan: vertex-set-sized matrix vs the full candidate set *)
  let nv = min 192 n in
  let vrows = Array.sub pts 0 nv in
  let vflat = Flat.of_rows vrows in
  let targets = Array.init n Fun.id in
  let row_boxed = Array.make n 0 and val_boxed = Array.make n 0. in
  let row_flat = Array.make n 0 and val_flat = Array.make n 0. in
  let t_champ_boxed =
    time_median_only (fun () -> ref_champions vrows pts row_boxed val_boxed)
  in
  let t_champ_flat =
    time_median_only (fun () ->
        ignore
          (Flat.champions ~vertices:vflat ~cands:fp targets ~tlo:0 ~thi:n
             ~out_row:row_flat ~out_val:val_flat))
  in
  for j = 0 to n - 1 do
    if
      row_flat.(j) <> row_boxed.(j)
      || Int64.bits_of_float val_flat.(j)
         <> Int64.bits_of_float val_boxed.(j)
    then fail_equivalence (Printf.sprintf "champion of candidate %d" j)
  done;
  (* ---- end-to-end preprocess: boxed pre-PR pipeline vs library flat path *)
  let e2e_boxed () =
    let sky = ref_sfs pts in
    let sky_pts = Array.map (fun i -> pts.(i)) sky in
    (sky, ref_happy sky_pts)
  in
  let e2e_flat () =
    let sky = Skyline.sfs pts in
    let sky_pts = Array.map (fun i -> pts.(i)) sky in
    (sky, Happy.happy_points sky_pts)
  in
  let (sky_b, happy_b), t_e2e_boxed =
    with_jobs 1 (fun () -> time_median e2e_boxed)
  in
  let (sky_f, happy_f), t_e2e_flat =
    with_jobs 1 (fun () -> time_median e2e_flat)
  in
  if sky_b <> sky_f then fail_equivalence "skyline indices";
  if happy_b <> happy_f then fail_equivalence "happy indices";
  let (sky2, happy2), t_e2e_flat2 =
    with_jobs 2 (fun () -> time_median e2e_flat)
  in
  if sky2 <> sky_f || happy2 <> happy_f then
    fail_equivalence "preprocess at jobs=2";
  (* GeoGreedy selections must agree across pool widths *)
  let happy_pts = Array.map (fun i -> pts.(sky_f.(i))) happy_f in
  let geo_at j =
    with_jobs j (fun () ->
        Geo_greedy.run ~points:happy_pts ~k:(min k (Array.length happy_pts)) ())
  in
  let g1 = geo_at 1 and g2 = geo_at 2 in
  if g1.Geo_greedy.order <> g2.Geo_greedy.order then
    fail_equivalence "GeoGreedy selection across jobs 1/2";
  let speedup_e2e = if t_e2e_flat > 0. then t_e2e_boxed /. t_e2e_flat else 1. in
  let samewidth =
    if t_e2e_flat2 > 0. then t_e2e_flat /. t_e2e_flat2 else 1.
  in
  let widths = [ 22; 12; 12; 10 ] in
  cells widths [ "kernel"; "boxed"; "flat"; "speedup" ];
  let micro_row name tb tf =
    cells widths
      [
        name;
        seconds tb;
        seconds tf;
        Printf.sprintf "%.2fx" (if tf > 0. then tb /. tf else 1.);
      ];
    ( name,
      [
        ("kind", String "micro");
        ("name", String name);
        ("boxed_seconds", Float tb);
        ("flat_seconds", Float tf);
        ("speedup", Float (if tf > 0. then tb /. tf else 1.));
      ] )
  in
  let r_dot = micro_row "dot_sweep" t_dot_boxed t_dot_flat in
  let r_dom = micro_row "dominance_sweep" t_dom_boxed t_dom_flat in
  let r_slack = micro_row "slack_sweep" t_slack_boxed t_slack_flat in
  let r_champ = micro_row "champion_scan" t_champ_boxed t_champ_flat in
  let rows_micro = [ r_dot; r_dom; r_slack; r_champ ] in
  cells widths
    [
      "preprocess(j=1)";
      seconds t_e2e_boxed;
      seconds t_e2e_flat;
      Printf.sprintf "%.2fx" speedup_e2e;
    ];
  cells widths
    [
      "preprocess(j=2)";
      "-";
      seconds t_e2e_flat2;
      Printf.sprintf "%.2fx sw" samewidth;
    ];
  note "equivalence: boxed and flat paths agreed on every result";
  note "gate: speedup(j=1) >= 1.5x full scale; samewidth(j=2/j=1) >= 1.0";
  ignore sink;
  ignore isink;
  emit_json ~id:"kernel"
    ~extra:
      [
        ("n", Int n);
        ("d", Int d);
        ("k", Int k);
        ("repeat", Int !repeat);
        ("jobs", Int jobs);
        ("equivalence_ok", Bool true);
        ("sky_size", Int (Array.length sky_f));
        ("happy_size", Int (Array.length happy_f));
        ("preprocess_boxed_seconds_jobs1", Float t_e2e_boxed);
        ("preprocess_flat_seconds_jobs1", Float t_e2e_flat);
        ("preprocess_flat_seconds_jobs2", Float t_e2e_flat2);
        ("speedup_e2e", Float speedup_e2e);
        ("speedup_samewidth", Float samewidth);
      ]
    (List.map snd rows_micro
    @ [
        [
          ("kind", String "e2e");
          ("name", String "preprocess");
          ("boxed_seconds", Float t_e2e_boxed);
          ("flat_seconds", Float t_e2e_flat);
          ("flat_seconds_jobs2", Float t_e2e_flat2);
          ("speedup", Float speedup_e2e);
          ("speedup_samewidth", Float samewidth);
        ];
      ])
