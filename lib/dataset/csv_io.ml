let parse_line line =
  let fields = String.split_on_char ',' line in
  let parse f =
    (* nan, inf and -inf parse as floats but are not coordinates *)
    match float_of_string_opt (String.trim f) with
    | Some x when Float.is_finite x -> x
    | Some _ | None -> failwith (Printf.sprintf "Csv_io: bad field %S" f)
  in
  Array.of_list (List.map parse fields)

let save path t =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Printf.fprintf oc "# name=%s dim=%d n=%d\n" t.Dataset.name t.Dataset.dim
        (Dataset.size t);
      Array.iter
        (fun p ->
          Array.iteri
            (fun i x ->
              if i > 0 then output_char oc ',';
              Printf.fprintf oc "%.17g" x)
            p;
          output_char oc '\n')
        t.Dataset.points)

let header_name line =
  (* parse "# name=foo dim=..." *)
  let tokens = String.split_on_char ' ' line in
  List.find_map
    (fun tok ->
      match String.index_opt tok '=' with
      | Some i when String.sub tok 0 i = "name" ->
          Some (String.sub tok (i + 1) (String.length tok - i - 1))
      | _ -> None)
    tokens

(* parse CSV text already in memory; [path] only names the fallback dataset
   name. Lets callers that need both the bytes and the points (e.g. the
   serving registry, which fingerprints the exact bytes it parsed) read the
   file once instead of racing two reads against concurrent rewrites. *)
let parse_string ?name ~path contents =
  let points = ref [] in
  let header = ref None in
  let lineno = ref 0 in
  List.iter
    (fun line ->
      incr lineno;
      let line = String.trim line in
      if line = "" then ()
      else if String.length line > 0 && line.[0] = '#' then begin
        if !header = None then header := header_name line
      end
      else
        match parse_line line with
        | p -> points := p :: !points
        | exception Failure msg ->
            failwith (Printf.sprintf "%s (line %d)" msg !lineno))
    (String.split_on_char '\n' contents);
  let name =
    match (name, !header) with
    | Some n, _ -> n
    | None, Some n -> n
    | None, None -> Filename.remove_extension (Filename.basename path)
  in
  Dataset.create ~name (Array.of_list (List.rev !points))

let load ?name path =
  let ic = open_in_bin path in
  let contents =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        try really_input_string ic (in_channel_length ic)
        with End_of_file -> failwith (path ^ ": truncated read"))
  in
  parse_string ?name ~path contents
