open Testutil
module Dominance = Kregret_skyline.Dominance
module Skyline = Kregret_skyline.Skyline
module Dataset = Kregret_dataset.Dataset
module Generator = Kregret_dataset.Generator
module Rng = Kregret_dataset.Rng

let test_dominance () =
  let open Dominance in
  Alcotest.(check bool) "dominates" true (dominates [| 2.; 2. |] [| 1.; 2. |]);
  Alcotest.(check bool) "not self" false (dominates [| 1.; 2. |] [| 1.; 2. |]);
  Alcotest.(check bool) "incomparable" false (dominates [| 2.; 1. |] [| 1.; 2. |]);
  Alcotest.(check bool) "equal" true (compare [| 1.; 1. |] [| 1.; 1. |] = Equal);
  Alcotest.(check bool) "dominated" true
    (compare [| 1.; 1. |] [| 1.; 2. |] = Dominated);
  Alcotest.(check bool) "incomparable rel" true
    (compare [| 2.; 1. |] [| 1.; 2. |] = Incomparable)

let test_known_skyline () =
  let points =
    [|
      [| 1.0; 0.2 |] (* skyline *);
      [| 0.5; 0.5 |] (* dominated by (0.6, 0.6) *);
      [| 0.6; 0.6 |] (* skyline *);
      [| 0.2; 1.0 |] (* skyline *);
      [| 0.1; 0.1 |] (* dominated *);
    |]
  in
  let expect = [| 0; 2; 3 |] in
  Alcotest.(check (array int)) "naive" expect (Skyline.naive points);
  Alcotest.(check (array int)) "bnl" expect (Skyline.bnl points);
  Alcotest.(check (array int)) "sfs" expect (Skyline.sfs points)

let test_duplicates_once () =
  let points = [| [| 1.; 1. |]; [| 1.; 1. |]; [| 0.5; 0.5 |] |] in
  Alcotest.(check int) "naive" 1 (Array.length (Skyline.naive points));
  Alcotest.(check int) "bnl" 1 (Array.length (Skyline.bnl points));
  Alcotest.(check int) "sfs" 1 (Array.length (Skyline.sfs points))

let test_single_point () =
  let points = [| [| 0.3; 0.7 |] |] in
  Alcotest.(check (array int)) "singleton" [| 0 |] (Skyline.sfs points)

(* [tie_p] dominates [tie_q], yet both coordinate sums round to 1.0: a
   sort on the sum alone may scan the dominee first *)
let tie_p = [| 1.0; 2e-17 |]
let tie_q = [| 1.0; 1e-17 |]

let test_rounding_tied_sums () =
  let points = [| tie_p; tie_q |] in
  Alcotest.(check (array int)) "naive" [| 0 |] (Skyline.naive points);
  Alcotest.(check (array int)) "sfs" [| 0 |] (Skyline.sfs points)

let test_rounding_tie_with_duplicate () =
  let points = [| tie_p; tie_q; tie_p |] in
  Alcotest.(check (array int)) "naive" [| 0 |] (Skyline.naive points);
  Alcotest.(check (array int)) "sfs" [| 0 |] (Skyline.sfs points)

let test_equal_points_keep_lowest_id () =
  let e = [| 0.5; 0.5 |] and f = [| 0.9; 0.1 |] in
  List.iter
    (fun (name, points, expect) ->
      Alcotest.(check (array int)) (name ^ " naive") expect (Skyline.naive points);
      Alcotest.(check (array int)) (name ^ " bnl") expect (Skyline.bnl points);
      Alcotest.(check (array int)) (name ^ " sfs") expect (Skyline.sfs points))
    [
      ("five copies", Array.make 5 e, [| 0 |]);
      ("two values interleaved", [| f; e; e; f; e |], [| 0; 1 |]);
    ]

let test_all_incomparable () =
  (* points on an anti-diagonal: all in the skyline *)
  let points = Array.init 10 (fun i ->
      let t = float_of_int i /. 9. in
      [| 0.1 +. (0.9 *. t); 1. -. (0.9 *. t) |])
  in
  Alcotest.(check int) "all kept" 10 (Array.length (Skyline.bnl points))

let skyline_is_sound points indices =
  let sky = Array.map (fun i -> points.(i)) indices in
  (* no skyline point dominated by any point *)
  Array.for_all
    (fun s -> not (Array.exists (fun p -> Dominance.dominates p s) points))
    sky
  &&
  (* every excluded point is dominated by or equal to a skyline point *)
  Array.for_all
    (fun p ->
      Array.exists
        (fun s ->
          match Dominance.compare s p with
          | Dominance.Dominates | Dominance.Equal -> true
          | Dominance.Dominated | Dominance.Incomparable -> false)
        sky)
    points

let test_of_dataset () =
  let ds = Generator.anti_correlated (Rng.create 17) ~n:300 ~d:3 in
  let sky = Skyline.of_dataset ds in
  Alcotest.(check string) "name" "anti_correlated/sky" sky.Dataset.name;
  Alcotest.(check bool) "smaller" true (Dataset.size sky <= Dataset.size ds);
  let naive = Skyline.naive ds.Dataset.points in
  Alcotest.(check bool) "rows = naive's" true
    (sky.Dataset.points = Array.map (fun i -> ds.Dataset.points.(i)) naive)

let suite =
  [
    Alcotest.test_case "dominance" `Quick test_dominance;
    Alcotest.test_case "known skyline" `Quick test_known_skyline;
    Alcotest.test_case "duplicates kept once" `Quick test_duplicates_once;
    Alcotest.test_case "single point" `Quick test_single_point;
    Alcotest.test_case "anti-diagonal" `Quick test_all_incomparable;
    Alcotest.test_case "dominator with a rounding-tied sum" `Quick
      test_rounding_tied_sums;
    Alcotest.test_case "rounding tie plus a later duplicate" `Quick
      test_rounding_tie_with_duplicate;
    Alcotest.test_case "equal points keep the lowest id" `Quick
      test_equal_points_keep_lowest_id;
    Alcotest.test_case "of_dataset" `Quick test_of_dataset;
    qcheck_case ~count:100 "three algorithms agree"
      (qc_points ~n:60 ~d:4)
      (fun pts ->
        let points = Array.of_list pts in
        let a = Skyline.naive points
        and b = Skyline.bnl points
        and c = Skyline.sfs points in
        a = b && a = c);
    qcheck_case ~count:100 "sfs = naive on a coarse grid (duplicates, ties)"
      (QCheck.make
         ~print:(fun l -> String.concat "; " (List.map Vector.to_string l))
         QCheck.Gen.(
           list_size (int_range 1 80)
             (array_size (return 3)
                (map (fun i -> 0.25 *. float_of_int i) (int_range 1 4)))))
      (fun pts ->
        let points = Array.of_list pts in
        Skyline.sfs points = Skyline.naive points);
    qcheck_case ~count:100 "skyline is sound and complete"
      (qc_points ~n:60 ~d:3)
      (fun pts ->
        let points = Array.of_list pts in
        skyline_is_sound points (Skyline.sfs points));
    qcheck_case ~count:50 "idempotent"
      (qc_points ~n:40 ~d:3)
      (fun pts ->
        let points = Array.of_list pts in
        let sky = Array.map (fun i -> points.(i)) (Skyline.sfs points) in
        Array.length (Skyline.sfs sky) = Array.length sky);
  ]
