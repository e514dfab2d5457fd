(* The load side of the benchmark: spawn [kregret_serve] as its own
   process, talk kregret-serve/v1 to it over a Unix-domain socket with raw
   frames (no library [Client], whose transparent [building] retries would
   hide failures), and run closed- and open-loop schedules from a single
   thread that multiplexes its connections with [Unix.select]. *)

exception Wire_error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Wire_error m)) fmt
let now = Unix.gettimeofday

let rec restart_on_eintr f x =
  try f x with Unix.Unix_error (Unix.EINTR, _, _) -> restart_on_eintr f x

(* ---- server process ------------------------------------------------------- *)

type server = { pid : int; sock : string; mutable exited : bool }

let spawned : server list ref = ref []

(* Pinned serving parameters: pool width 2, StoredList cap 32; the
   handler pool (--workers) and cache capacity stay at their defaults. *)
let spawn ~exe ~sock ~log ?metrics () =
  (try Sys.remove sock with Sys_error _ -> ());
  let args =
    [ exe; "--listen"; "unix:" ^ sock; "--jobs"; "2"; "--max-k"; "32"; "--quiet" ]
    @ match metrics with Some p -> [ "--metrics"; p ] | None -> []
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let out =
    Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let pid = Unix.create_process exe (Array.of_list args) null out out in
  Unix.close null;
  Unix.close out;
  let s = { pid; sock; exited = false } in
  spawned := s :: !spawned;
  s

let reap s =
  if not s.exited then
    match restart_on_eintr (Unix.waitpid [ Unix.WNOHANG ]) s.pid with
    | 0, _ -> ()
    | _ -> s.exited <- true
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> s.exited <- true

let kill s =
  reap s;
  if not s.exited then begin
    (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
    (try ignore (restart_on_eintr (Unix.waitpid []) s.pid)
     with Unix.Unix_error _ -> ());
    s.exited <- true
  end;
  try Sys.remove s.sock with Sys_error _ -> ()

let () = at_exit (fun () -> List.iter kill !spawned)

(* VmHWM: the resident-set high-water mark of the server process, MiB *)
let peak_rss_mb s =
  let ic = open_in (Printf.sprintf "/proc/%d/status" s.pid) in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> fail "VmHWM missing from /proc/%d/status" s.pid
        | Some l when String.starts_with ~prefix:"VmHWM:" l ->
            Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        | Some _ -> go ()
      in
      go ())

(* ---- connections ---------------------------------------------------------- *)

type conn = {
  fd : Unix.file_descr;
  chunk : Bytes.t;
  partial : Buffer.t;
  lines : string Queue.t;
}

let read_some c =
  let n = restart_on_eintr (Unix.read c.fd c.chunk 0) (Bytes.length c.chunk) in
  if n = 0 then fail "server closed the connection";
  let start = ref 0 in
  for i = 0 to n - 1 do
    if Bytes.get c.chunk i = '\n' then begin
      Buffer.add_subbytes c.partial c.chunk !start (i - !start);
      Queue.push (Buffer.contents c.partial) c.lines;
      Buffer.clear c.partial;
      start := i + 1
    end
  done;
  Buffer.add_subbytes c.partial c.chunk !start (n - !start)

let readable fds timeout =
  let r, _, _ =
    restart_on_eintr (fun t -> Unix.select fds [] [] t) (Float.max 0. timeout)
  in
  r

let recv c ~timeout =
  let deadline = now () +. timeout in
  while Queue.is_empty c.lines do
    if readable [ c.fd ] (deadline -. now ()) = [] then
      fail "no reply within %.0f s" timeout;
    read_some c
  done;
  Queue.pop c.lines

let send c frame =
  let b = Bytes.of_string (frame ^ "\n") in
  let off = ref 0 in
  while !off < Bytes.length b do
    off := !off + restart_on_eintr (Unix.write c.fd b !off) (Bytes.length b - !off)
  done

let call ?(timeout = 120.) c frame =
  send c frame;
  recv c ~timeout

(* connect as soon as the server has bound its socket; the hello frame
   proves it is accepting *)
let connect ?(timeout = 30.) s =
  let deadline = now () +. timeout in
  let rec attempt () =
    reap s;
    if s.exited then fail "server exited during start-up";
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX s.sock) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when now () < deadline ->
        Unix.close fd;
        Unix.sleepf 0.0005;
        attempt ()
  in
  let c =
    {
      fd = attempt ();
      chunk = Bytes.create 65536;
      partial = Buffer.create 256;
      lines = Queue.create ();
    }
  in
  let hello = recv c ~timeout in
  if not (String.length hello > 0 && Kregret_serve.Protocol.hello = hello) then
    fail "unexpected hello frame %S" hello;
  c

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

(* ask the server to stop, then wait for the process to end; kill it when
   it does not within [grace] seconds *)
let shutdown ?(grace = 15.) s =
  (match connect ~timeout:5. s with
  | c ->
      (try ignore (call ~timeout:5. c {|{"op":"shutdown"}|}) with Wire_error _ -> ());
      close c
  | exception Wire_error _ -> ());
  let deadline = now () +. grace in
  reap s;
  while (not s.exited) && now () < deadline do
    Unix.sleepf 0.005;
    reap s
  done;
  kill s

(* ---- schedules ------------------------------------------------------------ *)

(* Closed loop: every connection keeps exactly one request outstanding and
   sends its next one when the reply arrives, until [seconds] have passed.
   [frame i] is the i-th request overall; [reply i line] sees its answer.
   Returns (completed requests, seconds from the first send to the last
   reply). *)
let closed_loop conns ~seconds ~frame ~reply =
  let t0 = now () in
  let t_end = t0 +. seconds in
  let issued = ref 0 and completed = ref 0 and last = ref t0 in
  let outstanding = Hashtbl.create 4 in
  let issue c =
    let i = !issued in
    incr issued;
    Hashtbl.replace outstanding c.fd (c, i);
    send c (frame i)
  in
  List.iter issue conns;
  while Hashtbl.length outstanding > 0 do
    let fds = Hashtbl.fold (fun fd _ acc -> fd :: acc) outstanding [] in
    let ready = readable fds 120. in
    if ready = [] then fail "closed loop: no reply within 120 s";
    List.iter
      (fun fd ->
        match Hashtbl.find_opt outstanding fd with
        | None -> ()
        | Some (c, i) ->
            if Queue.is_empty c.lines then read_some c;
            if not (Queue.is_empty c.lines) then begin
              let line = Queue.pop c.lines in
              last := now ();
              incr completed;
              Hashtbl.remove outstanding fd;
              reply i line;
              if !last < t_end then issue c
            end)
      ready
  done;
  (!completed, !last -. t0)

(* One open-loop request stream on its own connection: request i is due at
   [start + (i + phase) / rate], sent when due whatever the replies are
   doing, and timed from when it was due. With [jitter], request i is due
   at a point drawn uniformly from its slot [start + (i, i + 1) / rate]
   instead: the rate stays exact, but the stream keeps no fixed phase to a
   periodic stream beside it. *)
type stream = {
  conn : conn;
  rate : float;
  count : int;
  offset : float array;  (* per request: seconds from the start of the loop *)
  frame : int -> string;
  on_send : int -> unit;
  on_reply : int -> string -> unit;
  latency : float array;  (* seconds, due -> reply *)
  lateness : float array;  (* seconds, due -> send *)
}

let stream ?(phase = 0.) ?jitter ?(on_send = ignore) conn ~rate ~count ~frame ~on_reply =
  let at i =
    match jitter with
    | Some rng -> (float_of_int i +. Random.State.float rng 1.) /. rate
    | None -> (float_of_int i +. phase) /. rate
  in
  {
    conn;
    rate;
    count;
    offset = Array.init count at;
    frame;
    on_send;
    on_reply;
    latency = Array.make count 0.;
    lateness = Array.make count 0.;
  }

let open_loop ?(drain = 60.) streams =
  let streams = Array.of_list streams in
  let ns = Array.length streams in
  let start = now () +. 0.001 in
  let due s i = start +. s.offset.(i) in
  let next = Array.make ns 0 in
  let inflight = Array.init ns (fun _ -> Queue.create ()) in
  let total = Array.fold_left (fun a s -> a + s.count) 0 streams in
  let completed = ref 0 in
  let last_due =
    Array.fold_left (fun a s -> Float.max a (due s (s.count - 1))) start streams
  in
  while !completed < total do
    let t = now () in
    if t > last_due +. drain then fail "open loop: replies still missing %.0f s after the last send" drain;
    let next_due = ref infinity in
    Array.iteri
      (fun si s ->
        let continue = ref true in
        while !continue && next.(si) < s.count do
          let i = next.(si) in
          let d = due s i in
          if d <= now () then begin
            s.on_send i;
            s.lateness.(i) <- now () -. d;
            send s.conn (s.frame i);
            Queue.push i inflight.(si);
            next.(si) <- i + 1
          end
          else begin
            next_due := Float.min !next_due d;
            continue := false
          end
        done)
      streams;
    let waiting =
      List.filter_map
        (fun si ->
          if Queue.is_empty inflight.(si) then None else Some streams.(si).conn.fd)
        (List.init ns Fun.id)
    in
    let timeout =
      if !next_due = infinity then 1. else Float.min 1. (!next_due -. now ())
    in
    let ready =
      if waiting = [] then begin
        Unix.sleepf (Float.max 0. timeout);
        []
      end
      else readable waiting timeout
    in
    List.iter
      (fun fd ->
        Array.iteri
          (fun si s ->
            if s.conn.fd = fd then begin
              read_some s.conn;
              let t_recv = now () in
              while not (Queue.is_empty s.conn.lines) do
                let line = Queue.pop s.conn.lines in
                if Queue.is_empty inflight.(si) then fail "unsolicited frame %S" line;
                let i = Queue.pop inflight.(si) in
                s.latency.(i) <- t_recv -. due s i;
                incr completed;
                s.on_reply i line
              done
            end)
          streams)
      ready
  done
