type t = Unix_path of string | Tcp of string * int

let parse spec =
  let fail () =
    Error
      (Printf.sprintf
         "bad endpoint %S (expected unix:PATH or tcp:HOST:PORT)" spec)
  in
  match String.index_opt spec ':' with
  | None -> if spec = "" then fail () else Ok (Unix_path spec)
  | Some i -> (
      let scheme = String.sub spec 0 i in
      let rest = String.sub spec (i + 1) (String.length spec - i - 1) in
      match scheme with
      | "unix" -> if rest = "" then fail () else Ok (Unix_path rest)
      | "tcp" -> (
          (* split on the LAST ':' so IPv6 literals keep their colons *)
          match String.rindex_opt rest ':' with
          | None -> fail ()
          | Some j -> (
              let host = String.sub rest 0 j in
              let port = String.sub rest (j + 1) (String.length rest - j - 1) in
              match int_of_string_opt port with
              | Some p when p >= 0 && p <= 65535 && host <> "" ->
                  Ok (Tcp (host, p))
              | _ -> fail ()))
      | _ -> fail ())

let to_string = function
  | Unix_path p -> "unix:" ^ p
  | Tcp (h, p) -> Printf.sprintf "tcp:%s:%d" h p

let resolve_host host =
  match Unix.inet_addr_of_string host with
  | addr -> Ok addr
  | exception Failure _ -> (
      match Unix.gethostbyname host with
      | { Unix.h_addr_list = [||]; _ } ->
          Error (Printf.sprintf "host %S resolves to no address" host)
      | h -> Ok h.Unix.h_addr_list.(0)
      | exception Not_found -> Error (Printf.sprintf "unknown host %S" host))

let protect_fd fd f =
  match f () with
  | v -> Ok v
  | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error (Unix.error_message e)

let backlog = 128

let listen ep =
  match ep with
  | Unix_path path -> (
      if Sys.file_exists path then (
        try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ());
      match Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 with
      | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
      | fd ->
          protect_fd fd (fun () ->
              Unix.bind fd (Unix.ADDR_UNIX path);
              Unix.listen fd backlog;
              Unix.set_nonblock fd;
              fd))
  | Tcp (host, port) -> (
      match resolve_host host with
      | Error m -> Error (to_string ep ^ ": " ^ m)
      | Ok addr -> (
          let domain = Unix.domain_of_sockaddr (Unix.ADDR_INET (addr, port)) in
          match Unix.socket domain Unix.SOCK_STREAM 0 with
          | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
          | fd ->
              protect_fd fd (fun () ->
                  Unix.setsockopt fd Unix.SO_REUSEADDR true;
                  Unix.bind fd (Unix.ADDR_INET (addr, port));
                  Unix.listen fd backlog;
                  Unix.set_nonblock fd;
                  fd)))

let connect ep =
  match ep with
  | Unix_path path -> (
      match Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 with
      | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
      | fd ->
          Result.map_error
            (fun m -> path ^ ": " ^ m)
            (protect_fd fd (fun () ->
                 Unix.connect fd (Unix.ADDR_UNIX path);
                 fd)))
  | Tcp (host, port) -> (
      match resolve_host host with
      | Error m -> Error (to_string ep ^ ": " ^ m)
      | Ok addr -> (
          let sockaddr = Unix.ADDR_INET (addr, port) in
          match Unix.socket (Unix.domain_of_sockaddr sockaddr) Unix.SOCK_STREAM 0 with
          | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
          | fd ->
              Result.map_error
                (fun m -> to_string ep ^ ": " ^ m)
                (protect_fd fd (fun () ->
                     Unix.connect fd sockaddr;
                     (try Unix.setsockopt fd Unix.TCP_NODELAY true
                      with Unix.Unix_error _ -> ());
                     fd))))

let local_of_fd ~fd ep =
  match ep with
  | Unix_path _ -> ep
  | Tcp (host, port) -> (
      match Unix.getsockname fd with
      | Unix.ADDR_INET (_, bound) -> Tcp (host, bound)
      | Unix.ADDR_UNIX _ | (exception Unix.Unix_error _) -> Tcp (host, port))

let unlink_if_unix = function
  | Tcp _ -> ()
  | Unix_path path ->
      if Sys.file_exists path then (
        try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ())
