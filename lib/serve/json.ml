type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* ---- parsing -------------------------------------------------------------

   Recursive descent over a string with an explicit cursor. All errors carry
   the offset so a malformed frame diagnosis points at the byte. *)

exception Parse_error of string

let fail pos fmt =
  Printf.ksprintf (fun m -> raise (Parse_error (Printf.sprintf "byte %d: %s" pos m))) fmt

type cursor = { s : string; mutable pos : int }

let peek c = if c.pos < String.length c.s then Some c.s.[c.pos] else None

let skip_ws c =
  while
    c.pos < String.length c.s
    &&
    match c.s.[c.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    c.pos <- c.pos + 1
  done

let expect c ch =
  match peek c with
  | Some x when x = ch -> c.pos <- c.pos + 1
  | Some x -> fail c.pos "expected %C, found %C" ch x
  | None -> fail c.pos "expected %C, found end of input" ch

let literal c word value =
  let n = String.length word in
  if c.pos + n <= String.length c.s && String.sub c.s c.pos n = word then begin
    c.pos <- c.pos + n;
    value
  end
  else fail c.pos "invalid literal"

let hex_digit ch =
  match ch with
  | '0' .. '9' -> Char.code ch - Char.code '0'
  | 'a' .. 'f' -> Char.code ch - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code ch - Char.code 'A' + 10
  | _ -> raise (Parse_error "bad hex digit")

let parse_string c =
  expect c '"';
  let buf = Buffer.create 16 in
  let rec loop () =
    match peek c with
    | None -> fail c.pos "unterminated string"
    | Some '"' -> c.pos <- c.pos + 1
    | Some '\\' ->
        c.pos <- c.pos + 1;
        (match peek c with
        | None -> fail c.pos "unterminated escape"
        | Some e ->
            c.pos <- c.pos + 1;
            (match e with
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | '/' -> Buffer.add_char buf '/'
            | 'n' -> Buffer.add_char buf '\n'
            | 't' -> Buffer.add_char buf '\t'
            | 'r' -> Buffer.add_char buf '\r'
            | 'b' -> Buffer.add_char buf '\b'
            | 'f' -> Buffer.add_char buf '\012'
            | 'u' ->
                if c.pos + 4 > String.length c.s then
                  fail c.pos "truncated \\u escape";
                let code =
                  try
                    (hex_digit c.s.[c.pos] * 4096)
                    + (hex_digit c.s.[c.pos + 1] * 256)
                    + (hex_digit c.s.[c.pos + 2] * 16)
                    + hex_digit c.s.[c.pos + 3]
                  with Parse_error _ -> fail c.pos "bad \\u escape"
                in
                c.pos <- c.pos + 4;
                (* we only need ASCII round-trips for the protocol; encode the
                   rest as UTF-8 so nothing is silently dropped *)
                if code < 0x80 then Buffer.add_char buf (Char.chr code)
                else if code < 0x800 then begin
                  Buffer.add_char buf (Char.chr (0xc0 lor (code lsr 6)));
                  Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3f)))
                end
                else begin
                  Buffer.add_char buf (Char.chr (0xe0 lor (code lsr 12)));
                  Buffer.add_char buf
                    (Char.chr (0x80 lor ((code lsr 6) land 0x3f)));
                  Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3f)))
                end
            | e -> fail (c.pos - 1) "bad escape \\%c" e));
        loop ()
    | Some ch when Char.code ch < 0x20 -> fail c.pos "raw control byte in string"
    | Some ch ->
        Buffer.add_char buf ch;
        c.pos <- c.pos + 1;
        loop ()
  in
  loop ();
  Buffer.contents buf

let parse_number c =
  let start = c.pos in
  let is_num_char ch =
    match ch with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while c.pos < String.length c.s && is_num_char c.s.[c.pos] do
    c.pos <- c.pos + 1
  done;
  let chunk = String.sub c.s start (c.pos - start) in
  match float_of_string_opt chunk with
  | Some f -> Num f
  | None -> fail start "malformed number %S" chunk

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> fail c.pos "unexpected end of input"
  | Some '{' ->
      c.pos <- c.pos + 1;
      skip_ws c;
      if peek c = Some '}' then begin
        c.pos <- c.pos + 1;
        Obj []
      end
      else begin
        let fields = ref [] in
        let rec members () =
          skip_ws c;
          let key = parse_string c in
          skip_ws c;
          expect c ':';
          let value = parse_value c in
          fields := (key, value) :: !fields;
          skip_ws c;
          match peek c with
          | Some ',' ->
              c.pos <- c.pos + 1;
              members ()
          | Some '}' -> c.pos <- c.pos + 1
          | Some ch -> fail c.pos "expected ',' or '}', found %C" ch
          | None -> fail c.pos "unterminated object"
        in
        members ();
        Obj (List.rev !fields)
      end
  | Some '[' ->
      c.pos <- c.pos + 1;
      skip_ws c;
      if peek c = Some ']' then begin
        c.pos <- c.pos + 1;
        Arr []
      end
      else begin
        let items = ref [] in
        let rec elements () =
          let v = parse_value c in
          items := v :: !items;
          skip_ws c;
          match peek c with
          | Some ',' ->
              c.pos <- c.pos + 1;
              elements ()
          | Some ']' -> c.pos <- c.pos + 1
          | Some ch -> fail c.pos "expected ',' or ']', found %C" ch
          | None -> fail c.pos "unterminated array"
        in
        elements ();
        Arr (List.rev !items)
      end
  | Some '"' -> Str (parse_string c)
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some 'n' -> literal c "null" Null
  | Some ('-' | '0' .. '9') -> parse_number c
  | Some ch -> fail c.pos "unexpected character %C" ch

let parse s =
  let c = { s; pos = 0 } in
  match parse_value c with
  | v ->
      skip_ws c;
      if c.pos <> String.length s then
        Error (Printf.sprintf "byte %d: trailing garbage after document" c.pos)
      else Ok v
  | exception Parse_error m -> Error m

(* ---- emission ------------------------------------------------------------ *)

let escape_into buf s =
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | ch when Char.code ch < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code ch))
      | ch -> Buffer.add_char buf ch)
    s

let float_repr f =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let to_string v =
  let buf = Buffer.create 256 in
  let rec emit v =
    match v with
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Num f -> Buffer.add_string buf (float_repr f)
    | Str s ->
        Buffer.add_char buf '"';
        escape_into buf s;
        Buffer.add_char buf '"'
    | Arr items ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i item ->
            if i > 0 then Buffer.add_char buf ',';
            emit item)
          items;
        Buffer.add_char buf ']'
    | Obj fields ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (key, value) ->
            if i > 0 then Buffer.add_char buf ',';
            Buffer.add_char buf '"';
            escape_into buf key;
            Buffer.add_string buf "\":";
            emit value)
          fields;
        Buffer.add_char buf '}'
  in
  emit v;
  Buffer.contents buf

(* ---- accessors ----------------------------------------------------------- *)

let member key v =
  match v with Obj fields -> List.assoc_opt key fields | _ -> None

let to_str v = match v with Str s -> Some s | _ -> None
let to_float v = match v with Num f -> Some f | _ -> None

let to_int v =
  match v with
  | Num f
    when Float.is_integer f
         && f >= Int.to_float Int.min_int
         && f <= Int.to_float Int.max_int ->
      Some (Float.to_int f)
  | _ -> None

let to_bool v = match v with Bool b -> Some b | _ -> None
let to_list v = match v with Arr items -> Some items | _ -> None
let int n = Num (Int.to_float n)
