let version = "kregret-serve/v1"
let default_max_line = 65536

type family = Query | Mrr | Rank_regret

let families = [ Query; Mrr; Rank_regret ]

let family_name = function
  | Query -> "query"
  | Mrr -> "mrr"
  | Rank_regret -> "rank_regret"

let family_of_op op =
  List.find_opt (fun f -> String.equal (family_name f) op) families

type request =
  | Ping
  | List
  | Stats
  | Shutdown
  | Load of { name : string; path : string; approx : float option }
  | Read of { family : family; name : string; k : int }
  | Evict of { name : string option }
  | Insert of { name : string; point : float array }
  | Delete of { name : string; id : int }
  | Flush of { name : string }

type error = { code : string; message : string }

let err ~code message = { code; message }

(* ---- request parsing ----------------------------------------------------- *)

let field_str obj key =
  match Json.member key obj with
  | None -> Error (err ~code:"missing_field" (Printf.sprintf "%S is required" key))
  | Some v -> (
      match Json.to_str v with
      | Some s -> Ok s
      | None ->
          Error
            (err ~code:"bad_field" (Printf.sprintf "%S must be a string" key)))

let field_k obj =
  match Json.member "k" obj with
  | None -> Error (err ~code:"missing_field" "\"k\" is required")
  | Some v -> (
      match Json.to_int v with
      | Some k when k >= 1 -> Ok k
      | Some k ->
          Error
            (err ~code:"bad_field"
               (Printf.sprintf "\"k\" must be a positive integer (got %d)" k))
      | None -> Error (err ~code:"bad_field" "\"k\" must be a positive integer"))

let field_id obj =
  match Json.member "id" obj with
  | None -> Error (err ~code:"missing_field" "\"id\" is required")
  | Some v -> (
      match Json.to_int v with
      | Some id when id >= 0 -> Ok id
      | Some id ->
          Error
            (err ~code:"bad_field"
               (Printf.sprintf "\"id\" must be a non-negative integer (got %d)" id))
      | None ->
          Error (err ~code:"bad_field" "\"id\" must be a non-negative integer"))

let field_point obj =
  match Json.member "point" obj with
  | None -> Error (err ~code:"missing_field" "\"point\" is required")
  | Some v -> (
      match Json.to_list v with
      | None -> Error (err ~code:"bad_field" "\"point\" must be an array of numbers")
      | Some [] -> Error (err ~code:"bad_field" "\"point\" must be non-empty")
      | Some elems -> (
          let coords = List.filter_map Json.to_float elems in
          if List.length coords <> List.length elems then
            Error (err ~code:"bad_field" "\"point\" must be an array of numbers")
          else Ok (Array.of_list coords)))

let field_approx obj =
  match Json.member "approx" obj with
  | None -> Ok None
  | Some v -> (
      match Json.to_float v with
      | Some a when Float.is_finite a && a > 0. && a <= 1. -> Ok (Some a)
      | Some _ | None ->
          Error
            (err ~code:"bad_field" "\"approx\" must be a number in (0, 1]"))

let ( let* ) r f = match r with Ok v -> f v | Error e -> Error e

let parse_request ?(max_line = default_max_line) line =
  if String.length line > max_line then
    Error
      (err ~code:"frame_too_large"
         (Printf.sprintf "frame is %d bytes; the limit is %d" (String.length line)
            max_line))
  else
    match Json.parse line with
    | Error m -> Error (err ~code:"parse_error" m)
    | Ok (Json.Obj _ as obj) -> (
        match Json.member "op" obj with
        | None -> Error (err ~code:"missing_field" "\"op\" is required")
        | Some op -> (
            match Json.to_str op with
            | None -> Error (err ~code:"bad_field" "\"op\" must be a string")
            | Some "ping" -> Ok Ping
            | Some "list" -> Ok List
            | Some "stats" -> Ok Stats
            | Some "shutdown" -> Ok Shutdown
            | Some "load" ->
                let* name = field_str obj "name" in
                let* path = field_str obj "path" in
                let* approx = field_approx obj in
                Ok (Load { name; path; approx })
            | Some "insert" ->
                let* name = field_str obj "name" in
                let* point = field_point obj in
                Ok (Insert { name; point })
            | Some "delete" ->
                let* name = field_str obj "name" in
                let* id = field_id obj in
                Ok (Delete { name; id })
            | Some "flush" ->
                let* name = field_str obj "name" in
                Ok (Flush { name })
            | Some "evict" -> (
                match Json.member "name" obj with
                | None -> Ok (Evict { name = None })
                | Some v -> (
                    match Json.to_str v with
                    | Some name -> Ok (Evict { name = Some name })
                    | None ->
                        Error
                          (err ~code:"bad_field" "\"name\" must be a string")))
            | Some other -> (
                match family_of_op other with
                | Some family ->
                    let* name = field_str obj "name" in
                    let* k = field_k obj in
                    Ok (Read { family; name; k })
                | None ->
                    Error
                      (err ~code:"unknown_op"
                         (Printf.sprintf "unknown op %S" other)))))
    | Ok _ -> Error (err ~code:"bad_request" "request must be a JSON object")

(* ---- response frames ----------------------------------------------------- *)

let hello = Json.to_string (Json.Obj [ ("ok", Bool true); ("hello", Str version) ])
let ok_response fields = Json.to_string (Json.Obj (("ok", Bool true) :: fields))

let error_response ?retry_after { code; message } =
  let base =
    [
      ("ok", Json.Bool false);
      ("error", Json.Obj [ ("code", Str code); ("message", Str message) ]);
    ]
  in
  let fields =
    match retry_after with
    | Some seconds -> base @ [ ("retry_after", Json.Num seconds) ]
    | None -> base
  in
  Json.to_string (Json.Obj fields)

(* ---- framed line I/O ------------------------------------------------------

   A tiny buffered reader over a raw fd. One reader per connection; reads
   are chunked (4 KiB) and lines extracted from the buffer, so a pipelined
   client that sends several frames in one packet is handled correctly. A
   frame reported [`Too_long] before its newline arrived is dropped up to
   that newline, so the next read returns the frame after it. *)

type reader = {
  fd : Unix.file_descr;
  chunk : Bytes.t;
  mutable pos : int;  (** next unread byte in [chunk] *)
  mutable len : int;  (** valid bytes in [chunk] *)
  acc : Buffer.t;  (** partial line carried across reads *)
  mutable skipping : bool;  (** inside a frame already reported too long *)
}

let reader fd =
  {
    fd;
    chunk = Bytes.create 4096;
    pos = 0;
    len = 0;
    acc = Buffer.create 256;
    skipping = false;
  }

let read_line r ~max =
  let rec loop () =
    if r.pos < r.len then begin
      (* scan the buffered chunk for a newline *)
      let nl = ref (-1) in
      let i = ref r.pos in
      while !nl < 0 && !i < r.len do
        if Bytes.get r.chunk !i = '\n' then nl := !i;
        incr i
      done;
      if !nl >= 0 && r.skipping then begin
        r.pos <- !nl + 1;
        r.skipping <- false;
        loop ()
      end
      else if !nl >= 0 then begin
        Buffer.add_subbytes r.acc r.chunk r.pos (!nl - r.pos);
        r.pos <- !nl + 1;
        let line = Buffer.contents r.acc in
        Buffer.clear r.acc;
        let line =
          let n = String.length line in
          if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1)
          else line
        in
        if String.length line > max then `Too_long else `Line line
      end
      else begin
        if not r.skipping then
          Buffer.add_subbytes r.acc r.chunk r.pos (r.len - r.pos);
        r.pos <- r.len;
        if Buffer.length r.acc > max then begin
          Buffer.clear r.acc;
          r.skipping <- true;
          `Too_long
        end
        else loop ()
      end
    end
    else
      match Unix.read r.fd r.chunk 0 (Bytes.length r.chunk) with
      | 0 ->
          if Buffer.length r.acc = 0 && not r.skipping then `Eof
          else begin
            Buffer.clear r.acc;
            r.skipping <- false;
            `Error "connection closed mid-frame"
          end
      | n ->
          r.pos <- 0;
          r.len <- n;
          loop ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | exception Unix.Unix_error (e, _, _) -> `Error (Unix.error_message e)
      | exception e -> `Error (Printexc.to_string e)
  in
  loop ()

let write_line fd s =
  let payload = s ^ "\n" in
  let len = String.length payload in
  let rec send off =
    if off >= len then Ok ()
    else
      match Unix.write_substring fd payload off (len - off) with
      | n -> send (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> send off
      | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
      | exception e -> Error (Printexc.to_string e)
  in
  send 0
