open Testutil
module Matrix = Kregret_geom.Matrix
module Vector = Kregret_geom.Vector

let test_rank () =
  let identity = Matrix.init 3 3 (fun i j -> if i = j then 1. else 0.) in
  Alcotest.(check int) "full" 3 (Matrix.rank identity);
  Alcotest.(check int) "deficient" 1 (Matrix.rank [| [| 1.; 2. |]; [| 2.; 4. |] |]);
  Alcotest.(check int) "zero rows" 0 (Matrix.rank [||]);
  Alcotest.(check int) "rectangular" 2
    (Matrix.rank [| [| 1.; 0.; 0. |]; [| 0.; 1.; 0. |] |])

let qc_matrix d =
  QCheck.make
    ~print:(fun m ->
      String.concat "; " (Array.to_list (Array.map Vector.to_string m)))
    QCheck.Gen.(
      array_size (return d)
        (array_size (return d) (float_range (-2.) 2.)))

let suite =
  [
    Alcotest.test_case "rank" `Quick test_rank;
    qcheck_case ~count:100 "rank bounded by dim" (qc_matrix 5) (fun a ->
        Matrix.rank a <= 5);
  ]
