module Obs = Kregret_obs

let c_leaders =
  Obs.Registry.counter "serve.batch.leaders"
    ~help:"coalesced-computation groups actually computed"

let c_followers =
  Obs.Registry.counter "serve.batch.followers"
    ~help:"requests served by piggybacking on an in-flight computation"

type 'v cell = { mutable result : ('v, exn) result option }

type ('k, 'v) t = {
  mutex : Mutex.t;
  cond : Condition.t;
  inflight : ('k, 'v cell) Hashtbl.t;
}

let create () =
  {
    mutex = Mutex.create ();
    cond = Condition.create ();
    inflight = Hashtbl.create 16;
  }

let run t ~key f =
  Mutex.lock t.mutex;
  match Hashtbl.find_opt t.inflight key with
  | Some cell ->
      Obs.Counter.incr c_followers;
      let rec await () =
        match cell.result with
        | Some r -> r
        | None ->
            Condition.wait t.cond t.mutex;
            await ()
      in
      let r = await () in
      Mutex.unlock t.mutex;
      (match r with Ok v -> (v, true) | Error e -> raise e)
  | None ->
      Obs.Counter.incr c_leaders;
      let cell = { result = None } in
      Hashtbl.replace t.inflight key cell;
      Mutex.unlock t.mutex;
      let r = try Ok (f ()) with e -> Error e in
      Mutex.lock t.mutex;
      cell.result <- Some r;
      Hashtbl.remove t.inflight key;
      Condition.broadcast t.cond;
      Mutex.unlock t.mutex;
      (match r with Ok v -> (v, false) | Error e -> raise e)

