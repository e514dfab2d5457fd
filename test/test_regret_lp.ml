open Testutil
module Vector = Kregret_geom.Vector
module Regret_lp = Kregret_lp.Regret_lp

(* 2-D reference: cr(q, S) for the downward closure of S can be computed by
   scanning candidate support directions (the two axes and the normals of the
   segments between selected points): cr = min over those w of
   (max_p w.p) / (w.q). *)
let cr_reference_2d selected q =
  let support w =
    List.fold_left (fun acc p -> Float.max acc (Vector.dot w p)) 0. selected
  in
  let dirs = ref [ [| 1.; 0. |]; [| 0.; 1. |] ] in
  List.iter
    (fun p ->
      List.iter
        (fun r ->
          let w = [| r.(1) -. p.(1); p.(0) -. r.(0) |] in
          let w = if w.(0) +. w.(1) < 0. then Vector.scale (-1.) w else w in
          if w.(0) >= -1e-12 && w.(1) >= -1e-12 && Vector.norm w > 1e-9 then
            dirs := w :: !dirs)
        selected)
    selected;
  List.fold_left
    (fun acc w ->
      let denom = Vector.dot w q in
      if denom > 1e-12 then Float.min acc (support w /. denom) else acc)
    infinity !dirs

let test_point_in_selection () =
  (* a selected point has critical ratio 1 (it is on the hull boundary) *)
  let s = [ [| 1.; 0.2 |]; [| 0.2; 1. |] ] in
  let cr, _ = Regret_lp.critical_ratio ~selected:s [| 1.; 0.2 |] in
  check_float "cr = 1" 1. cr

let test_interior_point () =
  let s = [ [| 1.; 0.2 |]; [| 0.2; 1. |] ] in
  let q = [| 0.3; 0.3 |] in
  let cr, _ = Regret_lp.critical_ratio ~selected:s q in
  Alcotest.(check bool) "cr > 1 for dominated interior point" true (cr > 1.);
  check_float "regret clipped to 0" 0. (Regret_lp.regret_ratio ~selected:s q)

let test_outside_point () =
  (* q = (1,1) sticks out of conv{(1,0.2),(0.2,1)}'s downward closure.
     The binding face is the segment between the two points: w = (1,1)/norm,
     support = 1.2, w.q = 2, so cr = 0.6. *)
  let s = [ [| 1.; 0.2 |]; [| 0.2; 1. |] ] in
  let cr, w = Regret_lp.critical_ratio ~selected:s [| 1.; 1. |] in
  check_float "cr" 0.6 cr;
  (* witness should expose regret 1 - 0.6 = 0.4 *)
  let support = List.fold_left (fun acc p -> Float.max acc (Vector.dot w p)) 0. s in
  check_float "witness ratio" 0.6 support

let test_witness_normalized () =
  let s = [ [| 1.; 0.2 |]; [| 0.2; 1. |] ] in
  let q = [| 0.9; 0.9 |] in
  let _, w = Regret_lp.critical_ratio ~selected:s q in
  check_float "w.q = 1" 1. (Vector.dot w q)

let test_mrr_lp_simple () =
  let data = [ [| 1.; 0.2 |]; [| 0.2; 1. |]; [| 1.; 1. |] ] in
  let selected = [ [| 1.; 0.2 |]; [| 0.2; 1. |] ] in
  check_float "mrr" 0.4 (Regret_lp.max_regret_ratio ~data ~selected ())

let test_mrr_zero_when_all_selected () =
  let data = [ [| 1.; 0.2 |]; [| 0.2; 1. |] ] in
  check_float "mrr = 0" 0. (Regret_lp.max_regret_ratio ~data ~selected:data ())

let test_worst_candidate () =
  let s = [ [| 1.; 0.2 |]; [| 0.2; 1. |] ] in
  let data = [| 1.; 1. |] :: [| 0.5; 0.5 |] :: s in
  match Regret_lp.worst_candidate ~data ~selected:s () with
  | Some (q, cr) ->
      Alcotest.check vector "worst is (1,1)" [| 1.; 1. |] q;
      check_float "its cr" 0.6 cr
  | None -> Alcotest.fail "nonempty data"

let test_empty_selection_rejected () =
  Alcotest.check_raises "empty"
    (Invalid_argument "Regret_lp.critical_ratio: empty selection") (fun () ->
      ignore (Regret_lp.critical_ratio ~selected:[] [| 1.; 1. |]))

let test_convex_position_triangle () =
  let a = [| 1.; 0.1 |] and b = [| 0.1; 1. |] and c = [| 0.9; 0.9 |] in
  let mid = [| 0.5; 0.5 |] in
  Alcotest.(check bool) "a extreme" true (Regret_lp.in_convex_position ~others:[ b; c; mid ] a);
  Alcotest.(check bool) "c extreme" true (Regret_lp.in_convex_position ~others:[ a; b; mid ] c);
  Alcotest.(check bool) "mid not extreme" false
    (Regret_lp.in_convex_position ~others:[ a; b; c ] mid);
  Alcotest.(check bool) "duplicate not extreme" false
    (Regret_lp.in_convex_position ~others:[ a; b; Vector.copy c ] c)

let test_convex_position_no_others () =
  Alcotest.(check bool) "alone is extreme" true
    (Regret_lp.in_convex_position ~others:[] [| 0.5; 0.5 |])

let suite =
  [
    Alcotest.test_case "selected point: cr = 1" `Quick test_point_in_selection;
    Alcotest.test_case "interior point: cr > 1" `Quick test_interior_point;
    Alcotest.test_case "outside point: exact cr" `Quick test_outside_point;
    Alcotest.test_case "witness normalization" `Quick test_witness_normalized;
    Alcotest.test_case "mrr on 3 points" `Quick test_mrr_lp_simple;
    Alcotest.test_case "mrr of full set is 0" `Quick test_mrr_zero_when_all_selected;
    Alcotest.test_case "worst candidate" `Quick test_worst_candidate;
    Alcotest.test_case "empty selection rejected" `Quick test_empty_selection_rejected;
    Alcotest.test_case "convex position: triangle" `Quick test_convex_position_triangle;
    Alcotest.test_case "convex position: alone" `Quick test_convex_position_no_others;
    qcheck_case ~count:100 "LP cr matches 2-D direction scan"
      QCheck.(pair (qc_points ~n:6 ~d:2) (qc_point 2))
      (fun (selected, q) ->
        let lp, _ = Regret_lp.critical_ratio ~selected q in
        let reference = cr_reference_2d selected q in
        abs_float (lp -. reference) < 1e-5);
    qcheck_case ~count:50 "selected points have cr >= 1, with min exactly 1"
      (qc_points ~n:8 ~d:3)
      (fun selected ->
        let crs =
          List.map (fun p -> fst (Regret_lp.critical_ratio ~selected p)) selected
        in
        List.for_all (fun cr -> cr >= 1. -. 1e-6) crs
        && abs_float (List.fold_left Float.min infinity crs -. 1.) < 1e-6);
    qcheck_case ~count:50 "adding points never increases mrr"
      QCheck.(triple (qc_points ~n:5 ~d:3) (qc_point 3) (qc_point 3))
      (fun (selected, extra, q) ->
        let cr1, _ = Regret_lp.critical_ratio ~selected q in
        let cr2, _ = Regret_lp.critical_ratio ~selected:(extra :: selected) q in
        cr2 >= cr1 -. 1e-6);
  ]
