module Rng = Kregret_dataset.Rng
module Csv_io = Kregret_dataset.Csv_io
module Skyline = Kregret_skyline.Skyline
module Happy = Kregret_happy.Happy
module Stored_list = Kregret.Stored_list
module Rrr = Kregret_rrr.Rrr
module Dynamic = Kregret.Dynamic
module Snapshot = Kregret.Snapshot
module Serve = Kregret_serve
module Json = Serve.Json
module Protocol = Serve.Protocol

(* The serving subsystem must answer with the same bits it would have
   produced offline, regardless of how the cache cap is set. [max_length]
   caps materialization on both sides identically. *)
let max_length = 16

type expected = {
  stored : Stored_list.t;
  orig_of_happy : int array;
}

let expected_of_points points =
  (* the [naive] reference: the registry's [sfs] must reproduce its ids,
     first-by-input-order representatives of duplicates included *)
  let sky_idx = Skyline.naive points in
  let sky = Array.map (fun i -> points.(i)) sky_idx in
  let happy_idx = Happy.happy_points sky in
  let happy = Array.map (fun i -> sky.(i)) happy_idx in
  let orig_of_happy = Array.map (fun i -> sky_idx.(i)) happy_idx in
  { stored = Stored_list.preprocess ~max_length happy; orig_of_happy }

let expected_answer e ~k =
  let sel = Stored_list.query e.stored ~k in
  ( List.map (fun i -> e.orig_of_happy.(i)) sel,
    Stored_list.mrr_at e.stored ~k )

let pp_sel sel = String.concat "," (List.map string_of_int sel)

let known_error_codes =
  [
    "parse_error"; "bad_request"; "missing_field"; "bad_field"; "unknown_op";
    "frame_too_large"; "not_found"; "building"; "build_failed"; "load_failed";
    "stale_dataset"; "static_dataset"; "bad_point"; "internal";
  ]

(* a handful of deterministic malformed frames; the server must answer each
   with a structured error (known code) and keep the connection serving *)
let malformed_frames rng =
  let pool =
    [|
      "garbage";
      "{";
      "[1,2]";
      "{\"op\":42}";
      "{\"op\":\"query\"}";
      "{\"op\":\"query\",\"name\":\"serve-oracle\"}";
      "{\"op\":\"query\",\"name\":\"serve-oracle\",\"k\":0}";
      "{\"op\":\"query\",\"name\":\"serve-oracle\",\"k\":1.5}";
      "{\"op\":\"mrr\",\"name\":\"no-such-dataset\",\"k\":2}";
      "{\"op\":\"flush\"}";
      "{\"op\":\"load\",\"name\":\"x\"}";
      "{\"op\":\"ping\",\"op\":\"ping\"";
    |]
  in
  List.init 4 (fun _ -> pool.(Rng.int rng (Array.length pool)))

(* ---- the update stream ---------------------------------------------------

   A seeded stream of inserts, deletes and one flush on the instance's
   dataset, replayed on an in-process [Dynamic] in the same order. The
   server applies some updates in place on its IO thread and hands the
   rest to the registry worker as repairs, and pipelined bursts mix the
   two: a reply or a read that disagrees with the replay means one path
   applied, answered or published out of turn. *)

type update = Insert of float array | Delete of int | Flush

(* what an update's reply says: applied, inserted id, epoch, live — or
   an error code *)
type outcome = (bool * int option * int * int, string) result

let update_frame ~name u =
  let frame op rest =
    Json.to_string
      (Json.Obj (("op", Json.Str op) :: ("name", Json.Str name) :: rest))
  in
  match u with
  | Insert p ->
      frame "insert"
        [ ("point", Json.Arr (Array.to_list (Array.map (fun x -> Json.Num x) p))) ]
  | Delete id -> frame "delete" [ ("id", Json.int id) ]
  | Flush -> frame "flush" []

let replay dyn u : outcome =
  let after applied id = Ok (applied, id, Dynamic.epoch dyn, Dynamic.live dyn) in
  match u with
  | Insert p -> (
      match Dynamic.insert dyn p with
      | id -> after true (Some id)
      | exception Invalid_argument _ -> Error "bad_point")
  | Delete id -> after (Dynamic.delete dyn id) None
  | Flush -> after (Dynamic.flush dyn > 0) None

let outcome_of reply : outcome option =
  match Json.parse reply with
  | Error _ -> None
  | Ok j -> (
      let get f conv = Option.bind (Json.member f j) conv in
      match get "ok" Json.to_bool with
      | Some true -> (
          match (get "applied" Json.to_bool, get "epoch" Json.to_int, get "live" Json.to_int) with
          | Some applied, Some epoch, Some live ->
              Some (Ok (applied, get "id" Json.to_int, epoch, live))
          | _ -> None)
      | _ ->
          Option.map
            (fun code -> Error code)
            (Option.bind (Json.member "error" j) (fun e ->
                 Option.bind (Json.member "code" e) Json.to_str)))

let pp_outcome = function
  | Error code -> "error " ^ code
  | Ok (applied, id, epoch, live) ->
      Printf.sprintf "applied=%b id=%s epoch=%d live=%d" applied
        (match id with Some i -> string_of_int i | None -> "-")
        epoch live

(* The stream, drawn against the replay as it goes: each update with its
   replayed outcome, and the published state after every prefix
   ([states.(j)] follows the first [j] updates). *)
let update_stream rng points =
  let d = Array.length points.(0) in
  let dyn = Dynamic.create ~max_length points in
  let length = 24 in
  let flush_at = Rng.int rng length in
  let states = ref [ Dynamic.snapshot dyn ] and ops = ref [] in
  for j = 0 to length - 1 do
    let b = (Dynamic.snapshot dyn).Snapshot.basis () in
    let live = Array.length b.Snapshot.ids in
    let sky = Array.map (fun c -> b.Snapshot.ids.(c)) b.Snapshot.candidates in
    let unknown = Array.length points + 1_000 + j in
    let row () = b.Snapshot.rows.(Rng.int rng live) in
    let u =
      if j = flush_at then Flush
      else
        match Rng.int rng 8 with
        | (0 | 1) when live > 0 ->
            (* strictly dominated by a live row *)
            Insert (Array.map (fun x -> x /. 2.) (row ()))
        | 2 when live > 0 ->
            (* dominates a skyline row: enters the skyline *)
            let r = b.Snapshot.rows.(b.Snapshot.candidates.(Rng.int rng (Array.length sky))) in
            Insert (Array.map (fun x -> Float.min 1. (x +. 0.05)) r)
        | 3 ->
            if Rng.int rng 2 = 0 then Insert (Array.make (d + 1) 0.5)
            else Insert (Array.init d (fun i -> if i = 0 then 1.5 else 0.5))
        | 4 when live > 0 -> Delete sky.(Rng.int rng (Array.length sky))
        | (5 | 6) when live > Array.length sky ->
            let rec off_sky () =
              let id = b.Snapshot.ids.(Rng.int rng live) in
              if Array.mem id sky then off_sky () else id
            in
            Delete (off_sky ())
        | 7 -> Delete unknown
        | _ -> Insert (Array.init d (fun _ -> 0.05 +. (0.95 *. Rng.float rng)))
    in
    let e = replay dyn u in
    ops := (u, e) :: !ops;
    states := Dynamic.snapshot dyn :: !states
  done;
  (Array.of_list (List.rev !ops), Array.of_list (List.rev !states))

let bits_equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Sends the stream on a connection of its own, in bursts of 1–4 frames
   written before any of their replies is read. While each burst is in
   flight, [c] reads on another connection: the answer must be that of a
   replayed state between the updates answered before the read was sent
   and those sent before its reply came. Then every final answer must be
   the replay's. *)
let check_updates ~report ~endpoint ~name ~k_hi rng c points =
  let fail check fmt = Printf.ksprintf (report check) fmt in
  let ops, states = update_stream rng points in
  let n = Array.length ops in
  let read ~lo ~hi =
    let k = 1 + Rng.int rng k_hi in
    let query = Rng.int rng 2 = 0 in
    let got =
      if query then Serve.Client.query c ~name ~k
      else Result.map (fun mrr -> ([], mrr)) (Serve.Client.mrr c ~name ~k)
    in
    match got with
    | Error m -> fail "serve" "read k=%d during updates %d..%d: %s" k lo hi m
    | Ok (sel, mrr) ->
        let matches j =
          let want_sel, want_mrr = Snapshot.query states.(j) ~k in
          bits_equal mrr want_mrr && ((not query) || sel = want_sel)
        in
        if not (List.exists matches (List.init (hi - lo + 1) (fun i -> lo + i)))
        then
          fail "serve"
            "%s k=%d during updates %d..%d answered [%s] mrr %.17g: no \
             replayed state in that window"
            (if query then "query" else "mrr")
            k lo hi (pp_sel sel) mrr
  in
  (match Serve.Endpoint.connect endpoint with
  | Error m -> fail "serve-protocol" "update connection: %s" m
  | Ok fd ->
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO 30.
           with Unix.Unix_error _ | Invalid_argument _ -> ());
          let r = Protocol.reader fd in
          let receive () =
            match Protocol.read_line r ~max:Protocol.default_max_line with
            | `Line l -> Some l
            | `Eof | `Too_long | `Error _ -> None
          in
          let sent = ref 0 and answered = ref 0 in
          let broken what =
            fail "serve-protocol" "update connection: %s" what;
            answered := n
          in
          if receive () = None then broken "no hello";
          while !answered < n do
            let burst = min (n - !sent) (1 + Rng.int rng 4) in
            let frames =
              List.init burst (fun i -> update_frame ~name (fst ops.(!sent + i)))
            in
            match Protocol.write_line fd (String.concat "\n" frames) with
            | Error m -> broken m
            | Ok () ->
                sent := !sent + burst;
                read ~lo:!answered ~hi:!sent;
                let rec replies () =
                  if !answered < !sent then
                    match receive () with
                    | None -> broken "no reply"
                    | Some reply ->
                        let u, want = ops.(!answered) in
                        (match outcome_of reply with
                        | Some got when got = want -> ()
                        | _ ->
                            fail "serve" "update %d (%s) answered %s, replay says %s"
                              !answered (update_frame ~name u) reply
                              (pp_outcome want));
                        incr answered;
                        replies ()
                in
                replies ()
          done));
  (* the final state, bit for bit: every k of query and mrr, and
     rank_regret against an offline engine over the replay's live rows *)
  let final = states.(n) in
  let basis = final.Snapshot.basis () in
  let rrr_eng =
    lazy (Rrr.build ~max_size:k_hi basis.Snapshot.rows)
  in
  for k = 1 to k_hi do
    let want_sel, want_mrr = Snapshot.query final ~k in
    (match Serve.Client.query c ~name ~k with
    | Error m -> fail "serve" "final query k=%d: %s" k m
    | Ok (sel, mrr) ->
        if sel <> want_sel || not (bits_equal mrr want_mrr) then
          fail "serve" "final query k=%d answered [%s] %.17g, replay [%s] %.17g"
            k (pp_sel sel) mrr (pp_sel want_sel) want_mrr);
    (match Serve.Client.mrr c ~name ~k with
    | Error m -> fail "serve" "final mrr k=%d: %s" k m
    | Ok mrr ->
        if not (bits_equal mrr want_mrr) then
          fail "serve" "final mrr k=%d answered %.17g, replay %.17g" k mrr
            want_mrr);
    match Serve.Client.rank_regret c ~name ~k with
    | Error m when final.Snapshot.live = 0 ->
        if not (String.starts_with ~prefix:"server error [empty_dataset]" m)
        then
          fail "serve" "final rank_regret k=%d on no live rows: %s" k m
    | Error m -> fail "serve" "final rank_regret k=%d: %s" k m
    | Ok (sel, lo, hi, exact) ->
        let ref_sel, r = Rrr.query (Lazy.force rrr_eng) ~k in
        let ref_sel = List.map (fun i -> basis.Snapshot.ids.(i)) ref_sel in
        if (sel, lo, hi, exact) <> (ref_sel, r.Rrr.lo, r.Rrr.hi, r.Rrr.exact) then
          fail "serve"
            "final rank_regret k=%d answered [%s] [%d, %d] exact=%b, offline \
             engine over the replay says [%s] [%d, %d] exact=%b"
            k (pp_sel sel) lo hi exact (pp_sel ref_sel) r.Rrr.lo r.Rrr.hi
            r.Rrr.exact
  done

let check inst =
  let failures = ref [] in
  let report check message = failures := (check, message) :: !failures in
  let fail check fmt = Printf.ksprintf (report check) fmt in
  let csv = Filename.temp_file "kregret_serve_oracle" ".csv" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove csv with Sys_error _ -> ())
    (fun () ->
      Csv_io.save csv (Instance.to_dataset inst);
      (* [Csv_io.save] emits %.17g and the instance is already normalized,
         so the server's normalize-on-load sees these exact points *)
      let e = expected_of_points inst.Instance.points in
      (* alternate the transport by instance parity: the wire core is
         transport-agnostic and both listener kinds must serve identical
         bits (the poller treats them uniformly) *)
      let listener =
        if inst.Instance.id mod 2 = 0 then
          Serve.Endpoint.Unix_path (Serve.Server.temp_socket_path ())
        else Serve.Endpoint.Tcp ("127.0.0.1", 0)
      in
      let server =
        Serve.Server.start_exn
          (Serve.Server.config ~cache_capacity:4 ~max_length
             ~listeners:[ listener ] ())
      in
      let endpoint = List.hd (Serve.Server.endpoints server) in
      Fun.protect
        ~finally:(fun () -> Serve.Server.stop server)
        (fun () ->
          match Serve.Client.connect_to endpoint with
          | Error m -> fail "serve-protocol" "connect: %s" m
          | Ok c ->
              Fun.protect
                ~finally:(fun () -> Serve.Client.close c)
                (fun () ->
                  let name = "serve-oracle" in
                  (match Serve.Client.load c ~name ~path:csv with
                  | Error m -> fail "serve" "load: %s" m
                  | Ok _ -> (
                      match Serve.Client.wait_ready c ~name with
                      | Error m -> fail "serve" "wait_ready: %s" m
                      | Ok () ->
                          (* a deterministic random interleaving of verbs:
                             repeated ks hit the cache, the tiny capacity
                             forces evictions, [evict] clears mid-stream —
                             every answer must match the offline bits *)
                          let rng =
                            Rng.create
                              ((inst.Instance.seed * 7_368_787)
                              + inst.Instance.id + 1)
                          in
                          let k_hi = max 1 (min inst.Instance.k max_length) in
                          (* built on first use; prefix-stability makes
                             one engine at k_hi answer every smaller k *)
                          let rrr_eng =
                            lazy (Rrr.build ~max_size:k_hi inst.Instance.points)
                          in
                          for _ = 1 to 12 do
                            let k = 1 + Rng.int rng k_hi in
                            match Rng.int rng 7 with
                            | 0 | 1 | 2 -> (
                                let want_sel, want_mrr = expected_answer e ~k in
                                match Serve.Client.query c ~name ~k with
                                | Error m -> fail "serve" "query k=%d: %s" k m
                                | Ok (sel, mrr) ->
                                    if sel <> want_sel then
                                      fail "serve"
                                        "query k=%d selection [%s], offline \
                                         StoredList says [%s]"
                                        k (pp_sel sel) (pp_sel want_sel);
                                    if
                                      not
                                        (Int64.equal (Int64.bits_of_float mrr)
                                           (Int64.bits_of_float want_mrr))
                                    then
                                      fail "serve"
                                        "query k=%d mrr %.17g, offline %.17g" k
                                        mrr want_mrr)
                            | 3 -> (
                                let _, want_mrr = expected_answer e ~k in
                                match Serve.Client.mrr c ~name ~k with
                                | Error m -> fail "serve" "mrr k=%d: %s" k m
                                | Ok mrr ->
                                    if
                                      not
                                        (Int64.equal (Int64.bits_of_float mrr)
                                           (Int64.bits_of_float want_mrr))
                                    then
                                      fail "serve"
                                        "mrr k=%d answered %.17g, offline %.17g"
                                        k mrr want_mrr)
                            | 4 -> (
                                let sel_ref, r_ref =
                                  Rrr.query (Lazy.force rrr_eng) ~k
                                in
                                let want =
                                  ( sel_ref,
                                    r_ref.Rrr.lo,
                                    r_ref.Rrr.hi,
                                    r_ref.Rrr.exact )
                                in
                                match Serve.Client.rank_regret c ~name ~k with
                                | Error m ->
                                    fail "serve" "rank_regret k=%d: %s" k m
                                | Ok got ->
                                    if got <> want then begin
                                      let sel, lo, hi, exact = got in
                                      let _, wlo, whi, wex = want in
                                      fail "serve"
                                        "rank_regret k=%d answered [%s] [%d, \
                                         %d] exact=%b, offline engine says \
                                         [%s] [%d, %d] exact=%b"
                                        k (pp_sel sel) lo hi exact
                                        (pp_sel sel_ref) wlo whi wex
                                    end)
                            | 5 -> (
                                match Serve.Client.evict c () with
                                | Error m -> fail "serve" "evict: %s" m
                                | Ok _ -> ())
                            | _ -> (
                                match Serve.Client.list_datasets c with
                                | Error m -> fail "serve" "list: %s" m
                                | Ok _ -> ())
                          done;
                          (* protocol abuse on the same connection *)
                          List.iter
                            (fun frame ->
                              match Serve.Client.request c frame with
                              | Error m ->
                                  fail "serve-protocol"
                                    "malformed frame %S broke the connection: \
                                     %s"
                                    frame m
                              | Ok j -> (
                                  match
                                    Option.bind (Serve.Json.member "error" j)
                                      (fun err ->
                                        Option.bind
                                          (Serve.Json.member "code" err)
                                          Serve.Json.to_str)
                                  with
                                  | Some code
                                    when List.mem code known_error_codes ->
                                      ()
                                  | Some code ->
                                      fail "serve-protocol"
                                        "frame %S: unknown error code %S" frame
                                        code
                                  | None ->
                                      fail "serve-protocol"
                                        "frame %S: expected a structured \
                                         error, got %s"
                                        frame (Serve.Json.to_string j)))
                            (malformed_frames rng);
                          (* still alive after the abuse *)
                          (match Serve.Client.ping c with
                          | Ok _ -> ()
                          | Error m ->
                              fail "serve-protocol" "ping after abuse: %s" m);
                          check_updates ~report ~endpoint ~name ~k_hi rng c
                            inst.Instance.points);
                  ()))));
  List.rev !failures
