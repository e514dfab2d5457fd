module Csv_io = Kregret_dataset.Csv_io
module Dataset = Kregret_dataset.Dataset
module Json = Kregret_serve.Json

let basename inst =
  Printf.sprintf "repro-s%d-i%d" inst.Instance.seed inst.Instance.id

(* ---- save ----------------------------------------------------------------- *)

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end

let save ~dir ~instance ~failures ~shrink_steps =
  mkdir_p dir;
  let base = basename instance in
  Csv_io.save
    (Filename.concat dir (base ^ ".csv"))
    (Instance.to_dataset instance);
  let checks =
    List.sort_uniq compare (List.map (fun f -> f.Oracle.check) failures)
  in
  let strings l = Json.Arr (List.map (fun s -> Json.Str s) l) in
  let fields =
    [
      ("version", Json.int 1);
      ("campaign_seed", Json.int instance.Instance.seed);
      ("id", Json.int instance.Instance.id);
      ("dist", Json.Str instance.Instance.dist);
      ("degeneracies", strings instance.Instance.degeneracies);
      ("n", Json.int (Instance.n instance));
      ("d", Json.int (Instance.d instance));
      ("k", Json.int instance.Instance.k);
      ("shrink_steps", Json.int shrink_steps);
      ("checks", strings checks);
      ("failures", strings (List.map (fun f -> f.Oracle.message) failures));
    ]
  in
  (* one field per line, so a re-minted repro diffs by field *)
  let field (key, v) =
    Json.to_string (Json.Str key) ^ ": " ^ Json.to_string v
  in
  Out_channel.with_open_bin (Filename.concat dir (base ^ ".json")) (fun oc ->
      output_string oc
        ("{\n  " ^ String.concat ",\n  " (List.map field fields) ^ "\n}\n"));
  base

(* ---- load ----------------------------------------------------------------- *)

(* the metadata object, and its fields by type; [None] when absent or of
   another type *)
let metadata json =
  match Json.parse (In_channel.with_open_bin json In_channel.input_all) with
  | Ok meta -> meta
  | Error m -> failwith (Printf.sprintf "%s: %s" json m)

let int_field meta key = Option.bind (Json.member key meta) Json.to_int
let string_field meta key = Option.bind (Json.member key meta) Json.to_str

let strings_field meta key =
  Option.map
    (List.filter_map Json.to_str)
    (Option.bind (Json.member key meta) Json.to_list)

let load ~dir base =
  let csv = Filename.concat dir (base ^ ".csv") in
  let json = Filename.concat dir (base ^ ".json") in
  if not (Sys.file_exists csv) then failwith (csv ^ ": missing corpus CSV");
  if not (Sys.file_exists json) then failwith (json ^ ": missing corpus JSON");
  let meta = metadata json in
  let need what = function
    | Some v -> v
    | None -> failwith (Printf.sprintf "%s: missing %s" json what)
  in
  let k = need "\"k\"" (int_field meta "k") in
  if k < 1 then failwith (json ^ ": k must be positive");
  (* normalization is an exact no-op on round-tripped repros (saved points
     are normalized and %.17g round-trips), and repairs hand-written ones *)
  let ds = Dataset.normalize (Csv_io.load csv) in
  {
    Instance.id = Option.value ~default:0 (int_field meta "id");
    seed = Option.value ~default:0 (int_field meta "campaign_seed");
    dist = Option.value ~default:"unknown" (string_field meta "dist");
    degeneracies = Option.value ~default:[] (strings_field meta "degeneracies");
    k;
    points = ds.Dataset.points;
  }

let failing_checks ~dir base =
  let json = Filename.concat dir (base ^ ".json") in
  if not (Sys.file_exists json) then []
  else Option.value ~default:[] (strings_field (metadata json) "checks")

let list ~dir =
  if not (Sys.file_exists dir) then []
  else
    Sys.readdir dir |> Array.to_list
    |> List.filter_map (fun f ->
           if Filename.check_suffix f ".json" then begin
             let base = Filename.chop_suffix f ".json" in
             if Sys.file_exists (Filename.concat dir (base ^ ".csv")) then
               Some base
             else None
           end
           else None)
    |> List.sort compare
