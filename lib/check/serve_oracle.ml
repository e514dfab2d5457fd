module Rng = Kregret_dataset.Rng
module Csv_io = Kregret_dataset.Csv_io
module Skyline = Kregret_skyline.Skyline
module Happy = Kregret_happy.Happy
module Stored_list = Kregret.Stored_list
module Rrr = Kregret_rrr.Rrr
module Serve = Kregret_serve

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

let check inst =
  let failures = ref [] in
  let fail check fmt =
    Printf.ksprintf (fun message -> failures := (check, message) :: !failures) fmt
  in
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
                              fail "serve-protocol" "ping after abuse: %s" m));
                  ()))));
  List.rev !failures
