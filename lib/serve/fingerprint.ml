let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let render h = Printf.sprintf "%016Lx" h
let mix h bits = Int64.mul (Int64.logxor h bits) fnv_prime

let of_string s =
  let h = ref fnv_offset in
  String.iter (fun ch -> h := mix !h (Int64.of_int (Char.code ch))) s;
  render !h

(* A stat signature is the cheap proxy for "the file was not touched":
   same device, inode, size and mtime (nanosecond precision on Linux)
   means the same bytes for any editor/tool that writes through the
   filesystem honestly. It is only ever an admission ticket for skipping
   the byte hash — a changed signature falls back to the full hash, so a
   touch without a rewrite does not invalidate anything. *)
type stat_sig = { dev : int; ino : int; size : int; mtime : float }

let sig_of_stats (st : Unix.stats) =
  {
    dev = st.Unix.st_dev;
    ino = st.Unix.st_ino;
    size = st.Unix.st_size;
    mtime = st.Unix.st_mtime;
  }

let sig_of_path path =
  match Unix.stat path with
  | st -> Ok (sig_of_stats st)
  | exception Unix.Unix_error (e, _, _) ->
      Error (path ^ ": " ^ Unix.error_message e)

let of_file path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | contents -> Ok (of_string contents)
  | exception Sys_error m -> Error m
  | exception End_of_file -> Error (path ^ ": truncated read")
