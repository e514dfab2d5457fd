(* ε-kernel approximation tier (lib/approx): the qcheck properties behind
   the approx fuzz oracle, pinned deterministically for tier-1.

   - the kernel is a strictly ascending subset of the input containing
     the maximum of every net direction (recomputed by an independent
     boxed first-wins scan);
   - halving ε exactly doubles the net resolution, nests the kernels and
     shrinks the advertised slack (monotonicity);
   - at d = 2 the exact DP (Optimal2d) sandwiches the approx answer:
     the approx selection never beats the optimum, and the certificate
     the pipeline advertises upper-bounds both;
   - the reduction and the downstream pipeline are bit-identical at pool
     widths {1, 2, 4};
   - the full approx oracle holds on a prefix of the fuzzer's own
     degenerate instance stream (duplicates, grid snapping, collinear
     fills — whatever Instance.generate deals). *)

module Vector = Kregret_geom.Vector
module Dataset = Kregret_dataset.Dataset
module Generator = Kregret_dataset.Generator
module Rng = Kregret_dataset.Rng
module Pool = Kregret_parallel.Pool
module Mrr = Kregret.Mrr
module Optimal2d = Kregret.Optimal2d
module Kernel = Kregret_approx.Kernel
module Pipeline = Kregret_approx.Pipeline
module Instance = Kregret_check.Instance
module Approx_oracle = Kregret_check.Approx_oracle

let with_jobs j f =
  let saved = Pool.get_jobs () in
  Pool.set_jobs j;
  Fun.protect ~finally:(fun () -> Pool.set_jobs saved) f

(* boxed first-wins reference scan, independent of Flat.champions *)
let ref_argmax dir points =
  let best = ref (-1) and best_v = ref Float.nan in
  Array.iteri
    (fun i p ->
      let v = Vector.dot dir p in
      if not (!best_v >= v) then begin
        best := i;
        best_v := v
      end)
    points;
  !best

let qc_pointset ~dmin ~dmax ~nmax =
  QCheck.make
    ~print:(fun pts ->
      String.concat "; " (Array.to_list (Array.map Vector.to_string pts)))
    QCheck.Gen.(
      let* d = int_range dmin dmax in
      let* n = int_range 1 nmax in
      array_size (return n) (array_size (return d) (float_range 0.01 1.0)))

(* ---- kernel structure ---------------------------------------------------- *)

let prop_subset_and_cover =
  QCheck.Test.make ~count:80 ~name:"kernel is an ascending subset covering every direction"
    (qc_pointset ~dmin:2 ~dmax:4 ~nmax:60)
    (fun points ->
      let eps = 0.25 in
      let r = Kernel.reduce ~eps points in
      let n = Array.length points in
      Array.iteri
        (fun i id ->
          if id < 0 || id >= n then
            QCheck.Test.fail_reportf "kernel id %d out of range" id;
          if i > 0 && r.Kernel.ids.(i - 1) >= id then
            QCheck.Test.fail_reportf "kernel ids not strictly ascending")
        r.Kernel.ids;
      let d = Array.length points.(0) in
      let nt = Kernel.net ~d ~eps in
      if Kregret_geom.Flat.rows nt.Kernel.dirs <> r.Kernel.directions then
        QCheck.Test.fail_reportf "net size mismatch";
      let in_kernel = Hashtbl.create 64 in
      Array.iter (fun id -> Hashtbl.replace in_kernel id ()) r.Kernel.ids;
      for j = 0 to r.Kernel.directions - 1 do
        let dir = Kregret_geom.Flat.row nt.Kernel.dirs j in
        let want = ref_argmax dir points in
        if r.Kernel.winners.(j) <> want then
          QCheck.Test.fail_reportf
            "direction %d: winner %d, reference says %d" j
            r.Kernel.winners.(j) want;
        if not (Hashtbl.mem in_kernel want) then
          QCheck.Test.fail_reportf "direction %d winner %d not in kernel" j
            want
      done;
      true)

let prop_monotone_in_eps =
  QCheck.Test.make ~count:60 ~name:"halving eps nests kernels and shrinks slack"
    (qc_pointset ~dmin:2 ~dmax:4 ~nmax:50)
    (fun points ->
      let d = Array.length points.(0) in
      (* eps chosen as an exact (d-1)/(2m) so the roundtrip is exact *)
      let eps = Kernel.slack_for ~d ~eps:0.3 in
      let hi = Kernel.reduce ~eps points in
      let lo = Kernel.reduce ~eps:(eps /. 2.) points in
      if lo.Kernel.resolution <> 2 * hi.Kernel.resolution then
        QCheck.Test.fail_reportf "resolution %d did not double (%d)"
          hi.Kernel.resolution lo.Kernel.resolution;
      if lo.Kernel.slack > hi.Kernel.slack then
        QCheck.Test.fail_reportf "slack grew as eps shrank";
      let in_lo = Hashtbl.create 64 in
      Array.iter (fun id -> Hashtbl.replace in_lo id ()) lo.Kernel.ids;
      Array.iter
        (fun id ->
          if not (Hashtbl.mem in_lo id) then
            QCheck.Test.fail_reportf
              "coarse kernel id %d missing from finer kernel" id)
        hi.Kernel.ids;
      true)

let test_resolution_roundtrip () =
  for d = 2 to 7 do
    for m = 1 to 40 do
      let eps = float_of_int (d - 1) /. (2. *. float_of_int m) in
      if eps <= 1. then
        Alcotest.(check int)
          (Printf.sprintf "d=%d m=%d roundtrip" d m)
          m
          (Kernel.resolution_for ~d ~eps)
    done
  done

let test_reduce_rejects_bad_input () =
  let raises f =
    match f () with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "empty input" true
    (raises (fun () -> Kernel.reduce ~eps:0.1 [||]));
  let one = [| [| 0.5; 0.5 |] |] in
  Alcotest.(check bool) "eps = 0" true
    (raises (fun () -> Kernel.reduce ~eps:0. one));
  Alcotest.(check bool) "eps > 1" true
    (raises (fun () -> Kernel.reduce ~eps:1.5 one));
  Alcotest.(check bool) "eps nan" true
    (raises (fun () -> Kernel.reduce ~eps:Float.nan one));
  let r = Kernel.reduce ~eps:0.5 one in
  Alcotest.(check (array int)) "singleton kernel" [| 0 |] r.Kernel.ids

(* ---- d = 2: sandwiched by the exact DP ----------------------------------- *)

let prop_optimal2d_sandwich =
  QCheck.Test.make ~count:40 ~name:"d=2: optimum <= approx mrr <= certificate"
    QCheck.(
      pair
        (qc_pointset ~dmin:2 ~dmax:2 ~nmax:40)
        (int_range 1 5))
    (fun (raw, k) ->
      QCheck.assume (Array.length raw >= 2);
      let ds =
        Dataset.normalize (Dataset.create ~name:"qc" (Array.map Array.copy raw))
      in
      let points = ds.Dataset.points in
      let p = Pipeline.run ~eps:0.25 points in
      let sel_ids, _ = Pipeline.query p ~k in
      QCheck.assume (sel_ids <> []);
      let data = Array.to_list points in
      let mrr_true =
        Mrr.geometric ~data ~selected:(List.map (fun i -> points.(i)) sel_ids)
      in
      let cert = Pipeline.certified_bound p ~k in
      let opt = Optimal2d.solve ~points ~k () in
      let tol = Kregret_check.Tolerance.tie in
      if mrr_true < opt.Optimal2d.mrr -. tol then
        QCheck.Test.fail_reportf
          "approx selection beats the exact optimum: %.9f < %.9f" mrr_true
          opt.Optimal2d.mrr;
      if mrr_true > cert +. tol then
        QCheck.Test.fail_reportf
          "approx mrr %.9f exceeds its certificate %.9f" mrr_true cert;
      true)

(* ---- pool-width invariance ----------------------------------------------- *)

let test_jobs_bit_identity () =
  let points =
    (Dataset.normalize
       (Generator.anti_correlated (Rng.create 2014) ~n:300 ~d:4))
      .Dataset.points
  in
  let at_jobs j =
    with_jobs j (fun () ->
        let r = Kernel.reduce ~eps:0.3 points in
        let p = Pipeline.run ~eps:0.3 points in
        let k = min 5 (Pipeline.stored_length p) in
        ( r.Kernel.ids,
          r.Kernel.winners,
          p.Pipeline.order,
          Int64.bits_of_float (Pipeline.mrr_at p ~k) ))
  in
  let ids1, win1, ord1, mrr1 = at_jobs 1 in
  List.iter
    (fun j ->
      let ids, win, ord, mrr = at_jobs j in
      Alcotest.(check (array int))
        (Printf.sprintf "kernel ids at jobs %d" j)
        ids1 ids;
      Alcotest.(check (array int))
        (Printf.sprintf "winners at jobs %d" j)
        win1 win;
      Alcotest.(check (array int))
        (Printf.sprintf "greedy order at jobs %d" j)
        ord1 ord;
      Alcotest.(check int64) (Printf.sprintf "mrr bits at jobs %d" j) mrr1 mrr)
    [ 2; 4 ]

(* ---- the full oracle on the fuzzer's degenerate stream ------------------- *)

let test_oracle_on_instance_stream () =
  let seed = 907 in
  let master = Rng.create seed in
  for id = 0 to 4 do
    let inst = Instance.generate ~seed ~id master in
    match Approx_oracle.check ~jobs_hi:2 inst with
    | [] -> ()
    | failures ->
        Alcotest.failf "%s: %s" (Instance.describe inst)
          (String.concat "; "
             (List.map (fun (c, m) -> c ^ ": " ^ m) failures))
  done

let suite =
  [
    QCheck_alcotest.to_alcotest prop_subset_and_cover;
    QCheck_alcotest.to_alcotest prop_monotone_in_eps;
    Alcotest.test_case "eps/resolution roundtrip d=2..7" `Quick
      test_resolution_roundtrip;
    Alcotest.test_case "reduce rejects bad input" `Quick
      test_reduce_rejects_bad_input;
    QCheck_alcotest.to_alcotest prop_optimal2d_sandwich;
    Alcotest.test_case "jobs {1,2,4} bit-identity" `Quick
      test_jobs_bit_identity;
    Alcotest.test_case "approx oracle on degenerate instances" `Slow
      test_oracle_on_instance_stream;
  ]
