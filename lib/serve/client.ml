type t = {
  fd : Unix.file_descr;
  reader : Protocol.reader;
  mutable closed : bool;
}

let close t =
  if not t.closed then begin
    t.closed <- true;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

let connect_to ?(timeout = 30.) endpoint =
  match Endpoint.connect endpoint with
  | Error m -> Error m
  | Ok fd -> (
      let fail msg =
        (try Unix.close fd with Unix.Unix_error _ -> ());
        Error msg
      in
      (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout
       with Unix.Unix_error _ | Invalid_argument _ -> ());
      let reader = Protocol.reader fd in
      match Protocol.read_line reader ~max:Protocol.default_max_line with
      | `Line line -> (
          match Json.parse line with
          | Ok j
            when Option.bind (Json.member "hello" j) Json.to_str
                 = Some Protocol.version ->
              Ok { fd; reader; closed = false }
          | Ok _ | Error _ ->
              fail (Printf.sprintf "unexpected hello frame %S" line))
      | `Eof -> fail "connection closed before hello"
      | `Too_long -> fail "oversized hello frame"
      | `Error m -> fail ("reading hello: " ^ m))

let connect ?timeout ~socket_path () =
  connect_to ?timeout (Endpoint.Unix_path socket_path)

let request_raw t line =
  if t.closed then Error "client is closed"
  else
    match Protocol.write_line t.fd line with
    | Error m -> Error ("send: " ^ m)
    | Ok () -> (
        match Protocol.read_line t.reader ~max:Protocol.default_max_line with
        | `Line resp -> Ok resp
        | `Eof -> Error "server closed the connection"
        | `Too_long -> Error "oversized response frame"
        | `Error m -> Error ("receive: " ^ m))

let request t line =
  match request_raw t line with
  | Error m -> Error m
  | Ok resp -> (
      match Json.parse resp with
      | Ok j -> Ok j
      | Error m -> Error (Printf.sprintf "unparsable response %S: %s" resp m))

(* ---- typed layer --------------------------------------------------------- *)

let is_ok j = Json.member "ok" j |> Option.map (fun v -> v = Json.Bool true)
              |> Option.value ~default:false

let error_code j =
  Option.bind (Json.member "error" j) (fun e ->
      Option.bind (Json.member "code" e) Json.to_str)

let error_message j =
  Option.bind (Json.member "error" j) (fun e ->
      Option.bind (Json.member "message" e) Json.to_str)

let server_error j =
  Printf.sprintf "server error [%s]: %s"
    (Option.value ~default:"?" (error_code j))
    (Option.value ~default:"?" (error_message j))

let retry_after j =
  Option.bind (Json.member "retry_after" j) Json.to_float

let request_obj t fields =
  match request t (Json.to_string (Json.Obj fields)) with
  | Error m -> Error m
  | Ok j -> if is_ok j then Ok j else Error (server_error j)

let ping t = request_obj t [ ("op", Json.Str "ping") ]

let load ?approx t ~name ~path =
  request_obj t
    ([ ("op", Json.Str "load"); ("name", Json.Str name); ("path", Json.Str path) ]
    @ match approx with Some e -> [ ("approx", Json.Num e) ] | None -> [])

let list_datasets t = request_obj t [ ("op", Json.Str "list") ]
let stats t = request_obj t [ ("op", Json.Str "stats") ]

let evict t ?name () =
  let fields =
    ("op", Json.Str "evict")
    :: (match name with Some n -> [ ("name", Json.Str n) ] | None -> [])
  in
  request_obj t fields

let wait_ready t ~name =
  let rec poll left =
    if left <= 0 then
      Error (Printf.sprintf "dataset %S still not ready after polling" name)
    else
      match list_datasets t with
      | Error m -> Error m
      | Ok j -> (
          let datasets =
            Option.bind (Json.member "datasets" j) Json.to_list
            |> Option.value ~default:[]
          in
          let entry =
            List.find_opt
              (fun d ->
                Option.bind (Json.member "name" d) Json.to_str = Some name)
              datasets
          in
          match entry with
          | None -> Error (Printf.sprintf "dataset %S is not loaded" name)
          | Some d -> (
              match Option.bind (Json.member "status" d) Json.to_str with
              | Some "ready" -> Ok ()
              | Some "failed" ->
                  Error
                    (Printf.sprintf "dataset %S failed to build: %s" name
                       (Option.value ~default:"?"
                          (Option.bind (Json.member "error" d) Json.to_str)))
              | _ ->
                  Thread.delay 0.02;
                  poll (left - 1)))
  in
  poll 600

let read_fields family ~name ~k =
  [
    ("op", Json.Str (Protocol.family_name family));
    ("name", Json.Str name);
    ("k", Json.int k);
  ]

let query_json t ~name ~k =
  request t (Json.to_string (Json.Obj (read_fields Protocol.Query ~name ~k)))

(* send a frame, retrying up to 200 times on [building] with the server's
   retry_after hint *)
let with_building_retry_fields t fields extract =
  let rec go left =
    match request t (Json.to_string (Json.Obj fields)) with
    | Error m -> Error m
    | Ok j ->
        if is_ok j then extract j
        else if error_code j = Some "building" && left > 0 then begin
          Thread.delay
            (Float.min 0.25 (Option.value ~default:0.05 (retry_after j)));
          go (left - 1)
        end
        else Error (server_error j)
  in
  go 200

let with_building_retry t family ~name ~k extract =
  with_building_retry_fields t (read_fields family ~name ~k) extract

let extract_mrr j = Option.bind (Json.member "mrr" j) Json.to_float

let query t ~name ~k =
  with_building_retry t Protocol.Query ~name ~k (fun j ->
      let selection =
        Option.bind (Json.member "selection" j) Json.to_list
        |> Option.map (List.filter_map Json.to_int)
      in
      match (selection, extract_mrr j) with
      | Some sel, Some mrr -> Ok (sel, mrr)
      | _ -> Error ("query response missing fields: " ^ Json.to_string j))

let mrr t ~name ~k =
  with_building_retry t Protocol.Mrr ~name ~k (fun j ->
      match extract_mrr j with
      | Some m -> Ok m
      | None -> Error ("mrr response missing mrr: " ^ Json.to_string j))

let rank_regret t ~name ~k =
  with_building_retry t Protocol.Rank_regret ~name ~k (fun j ->
      let selection =
        Option.bind (Json.member "selection" j) Json.to_list
        |> Option.map (List.filter_map Json.to_int)
      in
      let lo = Option.bind (Json.member "rank_lo" j) Json.to_int in
      let hi = Option.bind (Json.member "rank_hi" j) Json.to_int in
      let exact = Option.bind (Json.member "exact" j) Json.to_bool in
      match (selection, lo, hi, exact) with
      | Some sel, Some lo, Some hi, Some exact -> Ok (sel, lo, hi, exact)
      | _ -> Error ("rank_regret response missing fields: " ^ Json.to_string j))

(* ---- dynamic updates ------------------------------------------------------ *)

let insert t ~name ~point =
  with_building_retry_fields t
    [
      ("op", Json.Str "insert");
      ("name", Json.Str name);
      ("point", Json.Arr (Array.to_list (Array.map (fun x -> Json.Num x) point)));
    ]
    (fun j ->
      match Option.bind (Json.member "id" j) Json.to_int with
      | Some id -> Ok id
      | None -> Error ("insert response missing id: " ^ Json.to_string j))

let delete t ~name ~id =
  with_building_retry_fields t
    [ ("op", Json.Str "delete"); ("name", Json.Str name); ("id", Json.int id) ]
    (fun j ->
      match Option.bind (Json.member "applied" j) Json.to_bool with
      | Some applied -> Ok applied
      | None -> Error ("delete response missing applied: " ^ Json.to_string j))

let flush t ~name =
  with_building_retry_fields t
    [ ("op", Json.Str "flush"); ("name", Json.Str name) ]
    (fun j ->
      match Option.bind (Json.member "reclaimed" j) Json.to_int with
      | Some n -> Ok n
      | None -> Error ("flush response missing reclaimed: " ^ Json.to_string j))
