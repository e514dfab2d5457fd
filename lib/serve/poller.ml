(* Event-driven IO core: one select loop, a self-pipe, a worker pool.
   Locking: a single mutex guards every connection record, the job queue
   and the stop flags; the IO thread drops it around [select] AND around
   every per-connection syscall (holding it across reads/writes would make
   the critical section O(connections) and starve the workers — measured
   as a 13x throughput collapse at 100 clients). The IO thread is the only
   closer of fds, so a descriptor in a select set can never be closed out
   from under it. [handle] runs under the mutex, so it may take other
   locks (registry, cache) but the holders of those never take this one:
   completions are called with no other lock held. *)

module Obs = Kregret_obs

let handler_exceptions =
  Obs.Registry.counter "serve.handler_exceptions"
    ~help:"exceptions caught around a request handler"

let c_connections =
  Obs.Registry.counter "serve.connections" ~help:"accepted connections"

let c_refused =
  Obs.Registry.counter "serve.refused_connections"
    ~help:"connections turned away at the connection caps"

type reply = string * bool
type outcome = Answer of reply | Work of (unit -> reply) | Handed_off
type frame = Line of string | Too_long

let max_connections = 1000
let max_unsent = 65536

(* how long the listeners sit out of the select set after [accept] ran out
   of descriptors, unless a connection closes first *)
let accept_backoff = 0.1

(* [select] cannot watch a descriptor numbered FD_SETSIZE or more *)
let fd_setsize = 1024

(* on Unix a [file_descr] is the descriptor number *)
let fd_number (fd : Unix.file_descr) : int = Obj.magic fd

type conn = {
  c_id : int;
  c_fd : Unix.file_descr;
  c_acc : Buffer.t;  (* partial line carried across reads *)
  c_lines : frame Queue.t;  (* complete frames awaiting dispatch *)
  c_out : Buffer.t;  (* response bytes not yet handed to the writer *)
  mutable c_wchunk : string;  (* IO-owned write chunk in flight *)
  mutable c_wpos : int;
  mutable c_busy : bool;  (* one request in flight off the IO thread *)
  mutable c_read_closed : bool;  (* EOF seen, or input abandoned *)
  mutable c_close_after_flush : bool;
  mutable c_dead : bool;
}

type t = {
  m : Mutex.t;
  jobs_cond : Condition.t;
  jobs : (int * (unit -> reply)) Queue.t;
  conns : (int, conn) Hashtbl.t;
  by_fd : (Unix.file_descr, conn) Hashtbl.t;  (* IO thread only *)
  mutable listeners : Unix.file_descr list;
  mutable accept_resume : float;
      (* 0., or the time the listeners are watched again after EMFILE or
         ENFILE: a connection left in the backlog keeps its listener
         readable, and watching it would spin the loop *)
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  mutable wake_closed : bool;
  hello : string;
  refuse : string;  (* newline included *)
  handle : complete:(reply -> unit) -> string -> outcome;
  too_long : unit -> string;
  max_line : int;
  drain_timeout : float;
  mutable next_id : int;
  mutable unsent_peak : int;
  mutable stopping : bool;
  mutable stop_workers : bool;
  mutable worker_threads : Thread.t list;
  scratch : Bytes.t;  (* IO-thread-only read buffer *)
}

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

let wake t =
  (* one byte is enough; a full pipe already guarantees a wakeup *)
  if not t.wake_closed then
    try ignore (Unix.write_substring t.wake_w "w" 0 1)
    with Unix.Unix_error _ -> ()

(* pending-line cap: a pipelining client stops being read (backpressure)
   once this many frames await dispatch, instead of buffering unboundedly *)
let max_pending = 64

let close_fd fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* IO thread only, mutex held. Removing from the tables is what keeps
   state bounded: a finished connection leaves nothing behind. *)
let destroy t c =
  if not c.c_dead then begin
    c.c_dead <- true;
    Hashtbl.remove t.conns c.c_id;
    Hashtbl.remove t.by_fd c.c_fd;
    close_fd c.c_fd;
    (* a descriptor is free again: accept what the backlog holds *)
    t.accept_resume <- 0.
  end

(* mutex held: reply bytes appended but not yet written *)
let unsent c = Buffer.length c.c_out + String.length c.c_wchunk - c.c_wpos

(* Mutex held. The one way a request finishes, whichever thread answered
   it: append the reply and clear the in-flight mark. *)
let complete t c (resp, close_after) =
  if resp <> "" then begin
    Buffer.add_string c.c_out resp;
    Buffer.add_char c.c_out '\n';
    t.unsent_peak <- max t.unsent_peak (unsent c)
  end;
  c.c_busy <- false;
  if close_after then begin
    c.c_close_after_flush <- true;
    c.c_read_closed <- true;
    Queue.clear c.c_lines
  end

(* [complete] for a request answered on another thread, which then wakes
   the IO thread to write the reply and dispatch the next frame *)
let completion t id reply =
  Mutex.lock t.m;
  (match Hashtbl.find_opt t.conns id with
  | Some c -> complete t c reply
  | None -> ()  (* the connection died while we computed *));
  Mutex.unlock t.m;
  wake t

let outcome t c frame =
  try
    match frame with
    | Too_long -> Answer (t.too_long (), true)
    | Line line -> t.handle ~complete:(completion t c.c_id) line
  with _ ->
    (* [handle] is total; belt and braces *)
    Obs.Counter.incr handler_exceptions;
    Answer ("", true)

(* Mutex held, IO thread: the one place a connection's next frame is
   dispatched. Frames are answered inline until one needs another thread
   (in flight until its completion) or the client stops reading. *)
let rec dispatch t c =
  if (not c.c_busy) && (not c.c_dead) && unsent c < max_unsent then
    match Queue.take_opt c.c_lines with
    | None -> ()
    | Some frame -> (
        c.c_busy <- true;
        match outcome t c frame with
        | Answer reply ->
            complete t c reply;
            dispatch t c
        | Work work ->
            Queue.push (c.c_id, work) t.jobs;
            Condition.signal t.jobs_cond
        | Handed_off -> ())

(* worker body: pop a job, run it off the lock, complete it *)
let worker_loop t =
  let rec loop () =
    Mutex.lock t.m;
    while Queue.is_empty t.jobs && not t.stop_workers do
      Condition.wait t.jobs_cond t.m
    done;
    if Queue.is_empty t.jobs && t.stop_workers then Mutex.unlock t.m
    else begin
      let id, work = Queue.pop t.jobs in
      Mutex.unlock t.m;
      let reply =
        try work ()
        with _ ->
          Obs.Counter.incr handler_exceptions;
          ("", true)
      in
      completion t id reply;
      loop ()
    end
  in
  loop ()

let create ?(workers = 4) ?(max_line = 65536) ?(drain_timeout = 5.)
    ~listeners ~hello ~refuse ~handle ~too_long () =
  if workers < 1 then invalid_arg "Poller.create: workers < 1";
  if max_line < 1 then invalid_arg "Poller.create: max_line < 1";
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  let t =
    {
      m = Mutex.create ();
      jobs_cond = Condition.create ();
      jobs = Queue.create ();
      conns = Hashtbl.create 64;
      by_fd = Hashtbl.create 64;
      listeners;
      accept_resume = 0.;
      wake_r;
      wake_w;
      wake_closed = false;
      hello;
      refuse = refuse ^ "\n";
      handle;
      too_long;
      max_line;
      drain_timeout;
      next_id = 0;
      unsent_peak = 0;
      stopping = false;
      stop_workers = false;
      worker_threads = [];
      scratch = Bytes.create 8192;
    }
  in
  t.worker_threads <-
    List.init workers (fun _ -> Thread.create worker_loop t);
  t

let stop t =
  locked t (fun () -> t.stopping <- true);
  wake t

let live_connections t = locked t (fun () -> Hashtbl.length t.conns)
let unsent_peak t = locked t (fun () -> t.unsent_peak)

(* ---- IO-thread helpers (mutex held unless noted) -------------------------- *)

let accept_new t lfd =
  let rec drain () =
    match Unix.accept ~cloexec:true lfd with
    | fd, _ ->
        if t.stopping then close_fd fd
        else if
          Hashtbl.length t.conns >= max_connections
          || fd_number fd >= fd_setsize
        then begin
          (* past the caps: the refusal in place of the hello, then hang
             up; a fresh socket takes one small write without blocking *)
          Obs.Counter.incr c_refused;
          (try
             Unix.set_nonblock fd;
             ignore (Unix.write_substring fd t.refuse 0 (String.length t.refuse))
           with Unix.Unix_error _ -> ());
          close_fd fd
        end
        else begin
          (try Unix.set_nonblock fd with Unix.Unix_error _ -> ());
          (* latency over throughput: single small frames per round trip *)
          (try Unix.setsockopt fd Unix.TCP_NODELAY true
           with Unix.Unix_error _ | Invalid_argument _ -> ());
          let id = t.next_id in
          t.next_id <- id + 1;
          Obs.Counter.incr c_connections;
          let c =
            {
              c_id = id;
              c_fd = fd;
              c_acc = Buffer.create 256;
              c_lines = Queue.create ();
              c_out = Buffer.create 256;
              c_wchunk = "";
              c_wpos = 0;
              c_busy = false;
              c_read_closed = false;
              c_close_after_flush = false;
              c_dead = false;
            }
          in
          Buffer.add_string c.c_out t.hello;
          Buffer.add_char c.c_out '\n';
          Hashtbl.replace t.conns id c;
          Hashtbl.replace t.by_fd fd c
        end;
        drain ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain ()
    | exception Unix.Unix_error ((Unix.ECONNABORTED | Unix.EPERM), _, _) ->
        drain ()
    | exception Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE), _, _) ->
        t.accept_resume <- Unix.gettimeofday () +. accept_backoff
    | exception Unix.Unix_error _ -> ()
  in
  drain ()

(* frame complete lines out of a freshly read chunk (cf. Protocol.reader,
   which owns the same framing for the blocking client side), then
   dispatch *)
let ingest t c chunk len =
  let push_frame f =
    match f with
    | Too_long ->
        (* framing is no longer trustworthy: answer, then close; anything
           already buffered after the oversized frame is abandoned *)
        Queue.push Too_long c.c_lines;
        c.c_read_closed <- true;
        Buffer.clear c.c_acc
    | Line l -> if String.trim l <> "" then Queue.push (Line l) c.c_lines
  in
  let i = ref 0 in
  while !i < len && not c.c_read_closed do
    let nl = ref (-1) in
    let j = ref !i in
    while !nl < 0 && !j < len do
      if Bytes.get chunk !j = '\n' then nl := !j;
      incr j
    done;
    if !nl < 0 then begin
      Buffer.add_subbytes c.c_acc chunk !i (len - !i);
      i := len;
      if Buffer.length c.c_acc > t.max_line then push_frame Too_long
    end
    else begin
      Buffer.add_subbytes c.c_acc chunk !i (!nl - !i);
      i := !nl + 1;
      let line = Buffer.contents c.c_acc in
      Buffer.clear c.c_acc;
      let line =
        let n = String.length line in
        if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1) else line
      in
      if String.length line > t.max_line then push_frame Too_long
      else push_frame (Line line)
    end
  done;
  dispatch t c

(* mutex held: once the write chunk is done, the appended replies become
   the next one *)
let take_output c =
  if c.c_wpos >= String.length c.c_wchunk then begin
    c.c_wchunk <- Buffer.contents c.c_out;
    c.c_wpos <- 0;
    Buffer.clear c.c_out
  end

(* IO thread, mutex NOT held: [c_wchunk] is IO-owned, so the write syscall
   runs without the lock *)
let write_chunk t c =
  let len = String.length c.c_wchunk in
  if c.c_wpos < len then
    match Unix.write_substring c.c_fd c.c_wchunk c.c_wpos (len - c.c_wpos) with
    | n ->
        c.c_wpos <- c.c_wpos + n;
        if c.c_wpos >= len then begin
          c.c_wchunk <- "";
          c.c_wpos <- 0
        end
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
        ()
    | exception Unix.Unix_error _ -> locked t (fun () -> destroy t c)
    | exception _ -> locked t (fun () -> destroy t c)

let write_conn t c =
  if c.c_wpos >= String.length c.c_wchunk then locked t (fun () -> take_output c);
  write_chunk t c

(* IO thread, mutex NOT held around the read syscall: the fd and
   [scratch] are IO-owned. One lock section frames, dispatches and takes
   the inline answers for writing, which goes out before the next
   select. *)
let read_conn t c =
  match Unix.read c.c_fd t.scratch 0 (Bytes.length t.scratch) with
  | 0 ->
      (* close once drained, in the sweep *)
      locked t (fun () -> c.c_read_closed <- true)
  | n ->
      locked t (fun () ->
          ingest t c t.scratch n;
          take_output c);
      write_chunk t c
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    ->
      ()
  | exception Unix.Unix_error _ -> locked t (fun () -> destroy t c)
  | exception _ -> locked t (fun () -> destroy t c)

(* a connection with nothing left to do goes away; the table only ever
   holds live connections *)
let sweep t =
  let closable =
    Hashtbl.fold
      (fun _ c acc ->
        if
          unsent c = 0
          && (c.c_close_after_flush
             || (c.c_read_closed && (not c.c_busy) && Queue.is_empty c.c_lines))
        then c :: acc
        else acc)
      t.conns []
  in
  List.iter (fun c -> destroy t c) closable

let drain_wake t =
  let buf = Bytes.create 64 in
  let rec go () =
    match Unix.read t.wake_r buf 0 64 with
    | n when n > 0 -> go ()
    | _ -> ()
    | exception Unix.Unix_error _ -> ()
  in
  go ()

let loop t =
  let stop_seen = ref false in
  let deadline = ref infinity in
  let finished = ref false in
  while not !finished do
    let reads, writes, timeout =
      locked t (fun () ->
          if t.stopping && not !stop_seen then begin
            stop_seen := true;
            deadline := Unix.gettimeofday () +. t.drain_timeout;
            List.iter close_fd t.listeners;
            t.listeners <- [];
            (* no further input: drain what is already in flight *)
            Hashtbl.iter (fun _ c -> c.c_read_closed <- true) t.conns
          end;
          (* the frames a completion or a drained write let through *)
          Hashtbl.iter (fun _ c -> dispatch t c) t.conns;
          sweep t;
          if !stop_seen && Hashtbl.length t.conns = 0 then (None, [], 0.)
          else begin
            let reads = ref [ t.wake_r ] in
            let accept_wait =
              if t.accept_resume = 0. then -1.
              else
                let left = t.accept_resume -. Unix.gettimeofday () in
                if left > 0. then left
                else begin
                  t.accept_resume <- 0.;
                  -1.
                end
            in
            if accept_wait < 0. then
              List.iter (fun fd -> reads := fd :: !reads) t.listeners;
            let writes = ref [] in
            Hashtbl.iter
              (fun _ c ->
                let pending = unsent c in
                if
                  (not c.c_read_closed)
                  && Queue.length c.c_lines < max_pending
                  && pending < max_unsent
                then reads := c.c_fd :: !reads;
                if pending > 0 then writes := c.c_fd :: !writes)
              t.conns;
            let timeout = if !stop_seen then 0.05 else accept_wait in
            (Some !reads, !writes, timeout)
          end)
    in
    match reads with
    | None -> finished := true
    | Some reads -> (
        if !stop_seen && Unix.gettimeofday () > !deadline then
          (* drain took too long (a wedged peer, a stuck handler):
             force-close the stragglers — shutdown must never hang *)
          locked t (fun () ->
              Hashtbl.fold (fun _ c acc -> c :: acc) t.conns []
              |> List.iter (fun c -> destroy t c))
        else
          match Unix.select reads writes [] timeout with
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
          | exception Unix.Unix_error (Unix.EBADF, _, _) ->
              (* cannot happen by construction (only this thread closes
                 fds), but never spin on it *)
              locked t (fun () -> sweep t)
          | ready_r, ready_w, _ ->
              (* [by_fd] and the dead flags are IO-thread-owned: the only
                 lock taken here is inside the per-connection helpers, so
                 workers keep publishing while we service other fds *)
              List.iter
                (fun fd ->
                  if fd = t.wake_r then drain_wake t
                  else if List.memq fd t.listeners then
                    locked t (fun () -> accept_new t fd)
                  else
                    match Hashtbl.find_opt t.by_fd fd with
                    | Some c when not c.c_dead -> read_conn t c
                    | _ -> ())
                ready_r;
              List.iter
                (fun fd ->
                  match Hashtbl.find_opt t.by_fd fd with
                  | Some c when not c.c_dead -> write_conn t c
                  | _ -> ())
                ready_w)
  done

let run t =
  let retire () =
    locked t (fun () ->
        t.stop_workers <- true;
        Condition.broadcast t.jobs_cond);
    List.iter Thread.join t.worker_threads;
    locked t (fun () ->
        t.wake_closed <- true;
        close_fd t.wake_r;
        close_fd t.wake_w)
  in
  match loop t with
  | () ->
      (* listeners are gone and the table is empty: retire the workers *)
      retire ()
  | exception e ->
      (* the loop itself failed: hang up on every client rather than
         leave it waiting on a dead loop *)
      locked t (fun () ->
          t.stopping <- true;
          List.iter close_fd t.listeners;
          t.listeners <- [];
          Hashtbl.fold (fun _ c acc -> c :: acc) t.conns []
          |> List.iter (fun c -> destroy t c));
      retire ();
      raise e
