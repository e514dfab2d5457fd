(** Listener/connection endpoints for the serving tier.

    One wire core ({!Protocol}), many transports: the server can listen on
    any number of Unix-domain sockets and TCP sockets at once, and a client
    connects to any one of them. The textual syntax (the [--listen] /
    [--connect] CLI flags) is

    {v
      unix:PATH            Unix-domain stream socket at PATH
      tcp:HOST:PORT        TCP socket; HOST is an IPv4/IPv6 literal or a
                           resolvable name, PORT 0 asks the kernel for a
                           free port (resolved by {!local_of_fd})
    v}

    A bare string containing no [:] is accepted as a Unix path for
    backwards compatibility with [--socket]. *)

type t =
  | Unix_path of string
  | Tcp of string * int  (** host, port *)

val parse : string -> (t, string) result
(** [parse "unix:/tmp/s.sock"], [parse "tcp:127.0.0.1:7070"]. Total. *)

val to_string : t -> string
(** Round-trips with {!parse}. *)

val listen : t -> (Unix.file_descr, string) result
(** Bind + listen (non-blocking listener fd, backlog 128). Unix paths: a
    stale socket file is unlinked first. TCP: [SO_REUSEADDR] is set and
    the host resolved; port 0 binds an ephemeral port. The caller owns the
    fd. *)

val connect : t -> (Unix.file_descr, string) result
(** A connected stream socket (blocking mode — the client reads
    synchronously). TCP connections set [TCP_NODELAY]: the protocol is
    request/response on single small frames, where Nagle only adds
    latency. *)

val local_of_fd : fd:Unix.file_descr -> t -> t
(** The endpoint as actually bound: resolves a [Tcp (_, 0)] wildcard to
    the kernel-assigned port via [getsockname]. Unix paths pass through. *)

val unlink_if_unix : t -> unit
(** Remove the socket file of a Unix endpoint, ignoring errors. *)
