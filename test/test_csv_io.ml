(* Csv_io coverage (satellite of the fuzzing PR): bit-exact round-trips
   (the repro corpus depends on them), header naming rules, blank/comment
   tolerance, and malformed-row error paths with line numbers. *)

module Dataset = Kregret_dataset.Dataset
module Generator = Kregret_dataset.Generator
module Rng = Kregret_dataset.Rng
module Csv_io = Kregret_dataset.Csv_io

let temp_csv name f =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "kregret-csvio-%d-%s.csv" (Unix.getpid ()) name)
  in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let write path content =
  let oc = open_out path in
  output_string oc content;
  close_out oc

let test_round_trip_bit_exact () =
  (* save uses %.17g, so load must reproduce every float bit-for-bit — the
     corpus replay relies on this to re-run exactly the failing instance *)
  temp_csv "roundtrip" @@ fun path ->
  let ds = Generator.anti_correlated (Rng.create 41) ~n:60 ~d:4 in
  Csv_io.save path ds;
  let back = Csv_io.load path in
  Alcotest.(check int) "size preserved" (Dataset.size ds) (Dataset.size back);
  Alcotest.(check int) "dim preserved" ds.Dataset.dim back.Dataset.dim;
  Alcotest.(check string) "name read from the header" ds.Dataset.name
    back.Dataset.name;
  Alcotest.(check bool) "points bit-identical" true
    (ds.Dataset.points = back.Dataset.points);
  (* a second round trip is exact too (fixpoint) *)
  temp_csv "roundtrip2" @@ fun path2 ->
  Csv_io.save path2 back;
  let again = Csv_io.load path2 in
  Alcotest.(check bool) "fixpoint" true
    (back.Dataset.points = again.Dataset.points)

let test_name_resolution () =
  temp_csv "names" @@ fun path ->
  write path "# name=from-header dim=2 n=1\n0.5,1\n";
  Alcotest.(check string) "header wins by default" "from-header"
    (Csv_io.load path).Dataset.name;
  Alcotest.(check string) "explicit name overrides the header" "explicit"
    (Csv_io.load ~name:"explicit" path).Dataset.name;
  temp_csv "noheader" @@ fun path2 ->
  write path2 "0.5,1\n";
  Alcotest.(check string) "falls back to the basename"
    (Filename.remove_extension (Filename.basename path2))
    (Csv_io.load path2).Dataset.name

let test_blank_and_comment_lines_skipped () =
  temp_csv "comments" @@ fun path ->
  write path "# a comment\n\n0.25, 0.75\n   \n# trailing note\n1, 0.5\n";
  let ds = Csv_io.load path in
  Alcotest.(check int) "two data rows" 2 (Dataset.size ds);
  Alcotest.(check bool) "whitespace around fields trimmed" true
    (ds.Dataset.points.(0) = [| 0.25; 0.75 |]
    && ds.Dataset.points.(1) = [| 1.; 0.5 |])

let test_malformed_field_reports_line () =
  temp_csv "badfield" @@ fun path ->
  write path "# name=bad dim=2 n=2\n0.5,1\n0.7,oops\n";
  match Csv_io.load path with
  | _ -> Alcotest.fail "malformed field accepted"
  | exception Failure msg ->
      Alcotest.(check bool)
        (Printf.sprintf "message names the field and line: %s" msg)
        true
        (let contains needle =
           let nl = String.length needle and ml = String.length msg in
           let rec go i =
             i + nl <= ml && (String.sub msg i nl = needle || go (i + 1))
           in
           go 0
         in
         contains "oops" && contains "line 3")

let test_non_finite_fields_rejected () =
  (* nan, inf and -inf parse as OCaml floats; a loaded point must still be
     finite, so each is a bad field reported with its line *)
  List.iter
    (fun field ->
      temp_csv "nonfinite" @@ fun path ->
      write path (Printf.sprintf "0.5,1\n0.2,0.3\n0.7,%s\n1,0\n" field);
      (match Csv_io.load path with
      | _ -> Alcotest.failf "field %s accepted" field
      | exception Failure msg ->
          Alcotest.(check string)
            (Printf.sprintf "load rejects %s" field)
            (Printf.sprintf "Csv_io: bad field %S (line 3)" field)
            msg);
      let rejected =
        match Csv_io.parse_line ("0.5," ^ field) with
        | _ -> false
        | exception Failure _ -> true
      in
      Alcotest.(check bool) (Printf.sprintf "parse_line rejects %s" field)
        true rejected)
    [ "nan"; "inf"; "-inf" ]

let test_mixed_dimensions_rejected () =
  temp_csv "mixeddim" @@ fun path ->
  write path "0.5,1\n0.2,0.3,0.4\n";
  let rejected =
    match Csv_io.load path with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "ragged rows rejected by Dataset.create" true rejected

let test_empty_file_rejected () =
  temp_csv "empty" @@ fun path ->
  write path "# name=empty dim=2 n=0\n";
  let rejected =
    match Csv_io.load path with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "no data rows rejected" true rejected

let test_parse_line () =
  Alcotest.(check bool) "simple record" true
    (Csv_io.parse_line "0.5,0.25,1" = [| 0.5; 0.25; 1. |]);
  Alcotest.(check bool) "scientific notation" true
    (Csv_io.parse_line "1e-3, 2.5E2" = [| 0.001; 250. |]);
  let bad =
    match Csv_io.parse_line "0.5,," with
    | _ -> false
    | exception Failure _ -> true
  in
  Alcotest.(check bool) "empty field rejected" true bad

let suite =
  [
    Alcotest.test_case "round trip is bit-exact" `Quick
      test_round_trip_bit_exact;
    Alcotest.test_case "name resolution: arg > header > basename" `Quick
      test_name_resolution;
    Alcotest.test_case "blank and comment lines skipped" `Quick
      test_blank_and_comment_lines_skipped;
    Alcotest.test_case "malformed field reports its line" `Quick
      test_malformed_field_reports_line;
    Alcotest.test_case "non-finite fields rejected with their line" `Quick
      test_non_finite_fields_rejected;
    Alcotest.test_case "ragged rows rejected" `Quick
      test_mixed_dimensions_rejected;
    Alcotest.test_case "empty file rejected" `Quick test_empty_file_rejected;
    Alcotest.test_case "parse_line parses records and rejects junk" `Quick
      test_parse_line;
  ]
