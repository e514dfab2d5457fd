(* Unit tests for the rank-regret engine (lib/rrr) and its serving path —
   the deterministic complement to the fuzzer's `--check rrr` suite
   (lib/check/rrr_oracle.ml):

   - the certified lo bound is monotone non-increasing along greedy
     prefixes (hi is NOT monotone and is deliberately never asserted so);
   - the whole skyline has max rank 1;
   - d = 2 answers are exact and dominate dense direction sampling;
   - degenerate inputs (duplicates, score ties, collinear rows) keep
     every certificate well-formed;
   - answers are bit-identical across pool widths and across max_size
     (greedy prefix stability);
   - the served rank_regret verb is bit-identical to the offline engine
     over a live socket, and the result cache never
     hands one read family's row to another family at equal
     (generation, epoch, k). *)

module Vector = Kregret_geom.Vector
module Dataset = Kregret_dataset.Dataset
module Csv_io = Kregret_dataset.Csv_io
module Rng = Kregret_dataset.Rng
module Skyline = Kregret_skyline.Skyline
module Happy = Kregret_happy.Happy
module Mrr = Kregret.Mrr
module Pool = Kregret_parallel.Pool
module Rrr = Kregret_rrr.Rrr
module Serve = Kregret_serve
module Client = Serve.Client
module Server = Serve.Server
module Json = Serve.Json

let tol = Kregret_check.Tolerance.tie

let with_jobs jobs f =
  let before = Pool.get_jobs () in
  Pool.set_jobs jobs;
  Fun.protect ~finally:(fun () -> Pool.set_jobs before) f

let points_of ~n ~d ~seed =
  let st = Testutil.test_rng seed in
  Array.init n (fun _ -> Testutil.random_point st d)

(* structural sanity shared by every test: certificates are well-formed *)
let check_well_formed ~n (b : Rrr.rank) =
  Alcotest.(check bool) "1 <= lo" true (1 <= b.Rrr.lo);
  Alcotest.(check bool) "lo <= hi" true (b.Rrr.lo <= b.Rrr.hi);
  Alcotest.(check bool) "hi <= n" true (b.Rrr.hi <= n);
  Alcotest.(check bool) "exact iff lo = hi" (b.Rrr.lo = b.Rrr.hi) b.Rrr.exact

(* ---- lo monotonicity ------------------------------------------------------ *)

let check_lo_monotone ~d ~n ~seed () =
  let points = points_of ~n ~d ~seed in
  let eng = Rrr.build points in
  let bounds = Rrr.bounds eng in
  Alcotest.(check bool) "at least one prefix" true (Array.length bounds >= 1);
  Array.iter (check_well_formed ~n) bounds;
  for i = 1 to Array.length bounds - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "lo non-increasing at prefix %d" (i + 1))
      true
      (bounds.(i).Rrr.lo <= bounds.(i - 1).Rrr.lo)
  done;
  if d <= 2 then
    Array.iteri
      (fun i b ->
        Alcotest.(check bool)
          (Printf.sprintf "d=2 prefix %d exact" (i + 1))
          true b.Rrr.exact)
      bounds

(* ---- whole skyline => rank 1 ---------------------------------------------- *)

(* realized rank of [set] under [w], counting only beats clear of the tie
   tolerance — a lower bound on the exact-arithmetic rank, so it can
   never exceed the engine's certified max rank. *)
let sampled_rank ~points ~set w =
  let best = ref neg_infinity in
  Array.iter
    (fun s ->
      let v = Vector.dot w points.(s) in
      if v > !best then best := v)
    set;
  let c = ref 0 in
  Array.iter (fun q -> if Vector.dot w q > !best +. tol then incr c) points;
  1 + !c

(* Every preference's maximum score is attained on the skyline (a
   maximizer's dominator scores at least as much under w >= 0), so
   nothing strictly outranks the whole skyline anywhere. No such claim
   holds for the happy set — subjugation only bounds scores against the
   virtual corners, so a non-happy skyline point can be the strict top-1
   of some direction by a real margin (observed: 6e-3 on the d=2 seed-5
   instance below) — which is exactly why the engine's candidate pool is
   the skyline, not GeoGreedy's happy funnel. *)
let test_whole_skyline () =
  List.iter
    (fun (d, n, seed) ->
      let points = points_of ~n ~d ~seed in
      let sky = Skyline.naive points in
      let r = Rrr.max_rank ~points sky in
      check_well_formed ~n r;
      Alcotest.(check int)
        (Printf.sprintf "d=%d: whole skyline realizes rank 1" d)
        1 r.Rrr.lo;
      if d <= 2 then
        Alcotest.(check int) "d=2: whole skyline hi = 1" 1 r.Rrr.hi)
    [ (2, 80, 5); (3, 60, 6); (4, 50, 7) ]

(* ...and the non-claim is real: on that instance the happy funnel
   strictly loses rank 1 — pinning the reason the pools differ. *)
let test_happy_not_rank_complete () =
  let points = points_of ~n:80 ~d:2 ~seed:5 in
  let sky = Skyline.naive points in
  let sky_rows = Array.map (fun i -> points.(i)) sky in
  let happy = Array.map (fun i -> sky.(i)) (Happy.happy_points sky_rows) in
  if Array.length happy = Array.length sky then
    Alcotest.fail "fixture lost its dropped-but-rank-relevant point";
  let r = Rrr.max_rank ~points happy in
  Alcotest.(check bool) "happy funnel loses rank 1" true (r.Rrr.lo > 1)

(* ---- d = 2: exact, and sampling never beats the certificate --------------- *)

let test_d2_exact_vs_sampled () =
  let points = points_of ~n:120 ~d:2 ~seed:13 in
  let n = Array.length points in
  let eng = Rrr.build points in
  let order = Rrr.order eng in
  let bounds = Rrr.bounds eng in
  let rng = Rng.create 2014 in
  Array.iteri
    (fun i b ->
      Alcotest.(check bool)
        (Printf.sprintf "prefix %d exact" (i + 1))
        true
        (b.Rrr.exact && b.Rrr.lo = b.Rrr.hi);
      check_well_formed ~n b;
      let set = Array.sub order 0 (i + 1) in
      (* the witness itself realizes the certificate (up to ties) *)
      Alcotest.(check bool)
        (Printf.sprintf "prefix %d witness rank <= lo" (i + 1))
        true
        (sampled_rank ~points ~set b.Rrr.witness <= b.Rrr.lo);
      for _ = 1 to 100 do
        let w = Mrr.random_direction rng 2 in
        let r = sampled_rank ~points ~set w in
        if r > b.Rrr.lo then
          Alcotest.failf "prefix %d: sampled rank %d beats exact max %d" (i + 1)
            r b.Rrr.lo
      done)
    bounds

(* ---- degenerate inputs ---------------------------------------------------- *)

let test_degenerate_duplicates () =
  (* duplicates never outrank each other (strict tie rule): a lone point
     copied n times has max rank exactly 1 *)
  List.iter
    (fun d ->
      let p = Array.init d (fun i -> 0.3 +. (0.1 *. float_of_int i)) in
      let points = Array.make 9 p in
      let r = Rrr.max_rank ~points [| 0 |] in
      check_well_formed ~n:9 r;
      Alcotest.(check int)
        (Printf.sprintf "d=%d: duplicated singleton lo = 1" d)
        1 r.Rrr.lo;
      if d <= 2 then
        Alcotest.(check int) "d=2: duplicated singleton hi = 1" 1 r.Rrr.hi;
      let eng = Rrr.build points in
      Alcotest.(check bool) "build on all-duplicates" true (Rrr.size eng >= 1);
      Array.iter (check_well_formed ~n:9) (Rrr.bounds eng))
    [ 2; 3 ]

let test_degenerate_collinear () =
  (* collinear d=2 rows on x + y = 1: every point ties under (1/2, 1/2),
     crossings pile on shared t* values *)
  let points =
    Array.init 11 (fun i ->
        let x = 0.05 +. (0.09 *. float_of_int i) in
        [| x; 1.0 -. x |])
  in
  let n = Array.length points in
  let eng = Rrr.build points in
  let bounds = Rrr.bounds eng in
  Array.iter
    (fun b ->
      check_well_formed ~n b;
      Alcotest.(check bool) "collinear: exact" true b.Rrr.exact)
    bounds;
  (* the final greedy prefix drives the bound to 1 (all candidates are
     the happy set, and the whole happy set has rank 1) *)
  let last = bounds.(Array.length bounds - 1) in
  Alcotest.(check int) "collinear: final prefix rank 1" 1 last.Rrr.lo;
  Alcotest.(check int) "collinear: final prefix hi 1" 1 last.Rrr.hi

let test_degenerate_axis_ties () =
  (* shared coordinates: beat predicates degenerate to Constant on one
     axis; the sweep's equal-t event batching is on the other *)
  let points =
    [|
      [| 0.5; 0.9 |]; [| 0.5; 0.7 |]; [| 0.5; 0.5 |]; [| 0.9; 0.5 |];
      [| 0.7; 0.5 |]; [| 0.3; 0.3 |]; [| 0.5; 0.9 |];
    |]
  in
  let n = Array.length points in
  let eng = Rrr.build points in
  Array.iter
    (fun b ->
      check_well_formed ~n b;
      Alcotest.(check bool) "axis ties: exact" true b.Rrr.exact)
    (Rrr.bounds eng)

let test_single_point () =
  let points = [| [| 0.4; 0.6; 0.2 |] |] in
  let r = Rrr.max_rank ~points [| 0 |] in
  Alcotest.(check int) "n=1 lo" 1 r.Rrr.lo;
  Alcotest.(check int) "n=1 hi" 1 r.Rrr.hi;
  Alcotest.(check bool) "n=1 exact" true r.Rrr.exact

let test_invalid_args () =
  let points = points_of ~n:5 ~d:2 ~seed:3 in
  Alcotest.check_raises "empty set" (Invalid_argument "Rrr: empty member set")
    (fun () -> ignore (Rrr.max_rank ~points [||]));
  let eng = Rrr.build points in
  Alcotest.check_raises "k < 1" (Invalid_argument "Rrr.query: k must be positive")
    (fun () -> ignore (Rrr.query eng ~k:0))

(* ---- determinism: pool widths and prefix stability ------------------------ *)

let rank_bits (b : Rrr.rank) =
  ( b.Rrr.lo,
    b.Rrr.hi,
    b.Rrr.exact,
    Array.map Int64.bits_of_float b.Rrr.witness )

let test_pool_width_bit_identity () =
  let points = points_of ~n:100 ~d:4 ~seed:17 in
  let reference = with_jobs 1 (fun () -> Rrr.build points) in
  let ref_order = Rrr.order reference in
  let ref_bounds = Array.map rank_bits (Rrr.bounds reference) in
  List.iter
    (fun jobs ->
      let eng = with_jobs jobs (fun () -> Rrr.build points) in
      Alcotest.(check (array int))
        (Printf.sprintf "order identical at jobs=%d" jobs)
        ref_order (Rrr.order eng);
      let bounds = Array.map rank_bits (Rrr.bounds eng) in
      Alcotest.(check int)
        (Printf.sprintf "prefix count at jobs=%d" jobs)
        (Array.length ref_bounds) (Array.length bounds);
      Array.iteri
        (fun i (lo, hi, ex, w) ->
          let lo', hi', ex', w' = bounds.(i) in
          Alcotest.(check int) "lo bits" lo lo';
          Alcotest.(check int) "hi bits" hi hi';
          Alcotest.(check bool) "exact bits" ex ex';
          Alcotest.(check (array int64))
            (Printf.sprintf "witness bits at prefix %d, jobs=%d" (i + 1) jobs)
            w w')
        ref_bounds)
    [ 2; 4 ]

let test_prefix_stability () =
  let points = points_of ~n:80 ~d:3 ~seed:29 in
  let big = Rrr.build ~max_size:8 points in
  let small = Rrr.build ~max_size:3 points in
  let take = Rrr.size small in
  Alcotest.(check bool) "small build nonempty" true (take >= 1);
  Alcotest.(check (array int)) "greedy prefix stable"
    (Array.sub (Rrr.order big) 0 take)
    (Rrr.order small);
  for i = 0 to take - 1 do
    let a = rank_bits (Rrr.bounds big).(i)
    and b = rank_bits (Rrr.bounds small).(i) in
    Alcotest.(check bool)
      (Printf.sprintf "bounds bit-identical at prefix %d" (i + 1))
      true (a = b)
  done

(* ---- the rank kernel: sort stress across pool widths ---------------------- *)

(* Inputs that stress the per-direction sort at n = 3,000, where the table
   spans many pool chunks: every row equal; rows on the diagonal, so every
   direction's scores arrive ascending or descending; a coarse grid where
   most scores tie. The diagonal's skyline is one row, so those inputs
   name every 100th row as a candidate to give the greedy a choice. *)
let stress_inputs () =
  let n = 3_000 and d = 3 in
  let diag i = Array.make d (float_of_int (i + 1) /. float_of_int n) in
  let every = Array.init 30 (fun i -> i * 100) in
  let st = Testutil.test_rng 71 in
  let grid =
    Array.init n (fun _ ->
        Array.init d (fun _ -> float_of_int (1 + Random.State.int st 4) /. 4.))
  in
  [
    ("equal rows", Array.make n [| 0.5; 0.25; 0.75 |], None);
    ("ascending scores", Array.init n diag, Some every);
    ("descending scores", Array.init n (fun i -> diag (n - 1 - i)), Some every);
    ("coarse grid", grid, None);
  ]

let stress_budget = 200

let engine_bits eng =
  (Rrr.order eng, Array.map rank_bits (Rrr.bounds eng))

(* Across pool widths the table, and so the whole trajectory, is bit for
   bit the same; [select] over one table answers every k as [build] does;
   and every prefix certificate equals [max_rank] of the prefix, which
   counts each direction's ranks by a direct scan, with no sort. *)
let test_kernel_sort_stress () =
  List.iter
    (fun (what, points, candidates) ->
      let build ?max_size () =
        Rrr.build ~budget:stress_budget ?max_size ?candidates points
      in
      let reference = with_jobs 1 (fun () -> engine_bits (build ~max_size:8 ())) in
      List.iter
        (fun jobs ->
          let order, bounds =
            with_jobs jobs (fun () -> engine_bits (build ~max_size:8 ()))
          in
          Alcotest.(check (array int))
            (Printf.sprintf "%s: order at jobs=%d" what jobs)
            (fst reference) order;
          Alcotest.(check bool)
            (Printf.sprintf "%s: bounds and witness bits at jobs=%d" what jobs)
            true
            (snd reference = bounds))
        [ 2; 4 ];
      let table =
        with_jobs 2 (fun () ->
            Rrr.table ~budget:stress_budget ?candidates points)
      in
      for k = 1 to 8 do
        let selected = engine_bits (Rrr.select ~max_size:k table) in
        Alcotest.(check bool)
          (Printf.sprintf "%s: select = build at k=%d" what k)
          true
          (selected = engine_bits (build ~max_size:k ()))
      done;
      let order, bounds = reference in
      Array.iteri
        (fun i b ->
          let direct =
            Rrr.max_rank ~budget:stress_budget ~points (Array.sub order 0 (i + 1))
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s: prefix %d certificate = max_rank" what (i + 1))
            true
            (rank_bits direct = b))
        bounds)
    (stress_inputs ())

(* ---- serving: wire bit-identity and cache kind isolation ------------------ *)

let write_csv ~name ~n ~d ~seed =
  let st = Testutil.test_rng seed in
  let points = Array.init n (fun _ -> Testutil.random_point st d) in
  let path = Filename.temp_file "kregret_rrr_test" ".csv" in
  Csv_io.save path (Dataset.create ~name points);
  path

let with_server ?cache_capacity f =
  let socket_path = Server.temp_socket_path () in
  let server =
    Server.start_exn (Server.config ?cache_capacity ~socket_path ())
  in
  Fun.protect ~finally:(fun () -> Server.stop server) (fun () ->
      f ~socket_path server)

let with_client ~socket_path f =
  match Client.connect ~socket_path () with
  | Error m -> Alcotest.failf "connect: %s" m
  | Ok c -> Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)

let or_fail what = function
  | Ok v -> v
  | Error m -> Alcotest.failf "%s: %s" what m

let load_and_wait c ~name ~path =
  ignore (or_fail "load" (Client.load c ~name ~path));
  or_fail "wait_ready" (Client.wait_ready c ~name)

(* the registry's solo backend on a fresh dataset: normalized rows in
   file order — the offline engine over them is the wire reference *)
let offline_engine path ~k =
  let ds = Dataset.normalize (Csv_io.load path) in
  Rrr.build ~max_size:k ds.Dataset.points

let check_wire ~what eng ~k (sel, lo, hi, exact) =
  let sel_ref, rank_ref = Rrr.query eng ~k in
  Alcotest.(check (list int)) (what ^ ": selection") sel_ref sel;
  Alcotest.(check int) (what ^ ": rank_lo") rank_ref.Rrr.lo lo;
  Alcotest.(check int) (what ^ ": rank_hi") rank_ref.Rrr.hi hi;
  Alcotest.(check bool) (what ^ ": exact") rank_ref.Rrr.exact exact

let test_serve_bit_identical () =
  let path = write_csv ~name:"rrr-e2e" ~n:90 ~d:3 ~seed:41 in
  let k_hi = 6 in
  let eng = offline_engine path ~k:k_hi in
  with_server ~cache_capacity:64 (fun ~socket_path _server ->
      with_client ~socket_path (fun c ->
          load_and_wait c ~name:"solo" ~path;
          for k = 1 to k_hi do
            (* solo: cold, then the cached row is the same bits *)
            let a = or_fail "rank_regret" (Client.rank_regret c ~name:"solo" ~k) in
            check_wire ~what:(Printf.sprintf "solo k=%d" k) eng ~k a;
            let a' =
              or_fail "rank_regret warm" (Client.rank_regret c ~name:"solo" ~k)
            in
            Alcotest.(check bool)
              (Printf.sprintf "solo k=%d warm identical" k)
              true (a = a')
          done))

(* rank_regret after updates: the served answer is the offline engine over
   the live rows (ascending id) with selections mapped to ids — after an
   insert that enters the skyline, a duplicate of it, and a delete of a
   skyline member. This pins the basis and candidate set a solo dataset
   publishes after each update. The duplicate leaves the epoch alone but
   changes every rank, so the answers cached before it must not serve
   after it. *)
let test_serve_after_updates () =
  let path = write_csv ~name:"rrr-upd" ~n:70 ~d:3 ~seed:59 in
  let base = (Dataset.normalize (Csv_io.load path)).Dataset.points in
  let live = ref (Array.to_list (Array.mapi (fun i p -> (i, p)) base)) in
  let rows () = Array.of_list (List.map snd !live) in
  let ids () = Array.of_list (List.map fst !live) in
  let skyline_ids () =
    let ids = ids () in
    Array.map (fun i -> ids.(i)) (Skyline.naive (rows ()))
  in
  let check_against_offline c ~what =
    let ids = ids () in
    for k = 1 to 3 do
      let sel_ref, r = Rrr.query (Rrr.build ~max_size:k (rows ())) ~k in
      let sel, lo, hi, exact =
        or_fail "rank_regret" (Client.rank_regret c ~name:"upd" ~k)
      in
      let what = Printf.sprintf "%s, k=%d" what k in
      Alcotest.(check (list int)) (what ^ ": selection")
        (List.map (fun i -> ids.(i)) sel_ref)
        sel;
      Alcotest.(check int) (what ^ ": rank_lo") r.Rrr.lo lo;
      Alcotest.(check int) (what ^ ": rank_hi") r.Rrr.hi hi;
      Alcotest.(check bool) (what ^ ": exact") r.Rrr.exact exact
    done
  in
  with_server ~cache_capacity:64 (fun ~socket_path _server ->
      with_client ~socket_path (fun c ->
          load_and_wait c ~name:"upd" ~path;
          check_against_offline c ~what:"fresh";
          let insert p =
            let id = or_fail "insert" (Client.insert c ~name:"upd" ~point:p) in
            live := !live @ [ (id, p) ];
            id
          in
          (* a point strictly above a skyline member: nothing dominates it *)
          let p =
            Array.map
              (fun x -> Float.min 1. (x +. 0.01))
              (List.assoc (skyline_ids ()).(0) !live)
          in
          let entrant = insert p in
          Alcotest.(check bool) "the insert enters the skyline" true
            (Array.mem entrant (skyline_ids ()));
          check_against_offline c ~what:"after a skyline insert";
          let dup = insert p in
          Alcotest.(check bool) "the duplicate stays out of the skyline" false
            (Array.mem dup (skyline_ids ()));
          check_against_offline c ~what:"after a duplicate insert";
          let victim =
            match
              List.find_opt (fun id -> id <> entrant)
                (Array.to_list (skyline_ids ()))
            with
            | Some id -> id
            | None -> Alcotest.fail "no skyline member to delete"
          in
          Alcotest.(check bool) "the delete applies" true
            (or_fail "delete" (Client.delete c ~name:"upd" ~id:victim));
          live := List.filter (fun (id, _) -> id <> victim) !live;
          check_against_offline c ~what:"after a skyline delete"));
  Sys.remove path

(* raw-frame probe: issue one verb and read the response's cached flag *)
let probe c ~op ~name ~k =
  let frame =
    Json.to_string
      (Json.Obj
         [ ("op", Json.Str op); ("name", Json.Str name); ("k", Json.int k) ])
  in
  let j = or_fail op (Client.request c frame) in
  (match Option.bind (Json.member "ok" j) Json.to_bool with
  | Some true -> ()
  | _ -> Alcotest.failf "%s: not ok: %s" op (Json.to_string j));
  match Option.bind (Json.member "cached" j) Json.to_bool with
  | Some b -> (j, b)
  | None -> Alcotest.failf "%s: response has no cached flag" op

(* The cache-key regression: for every ordered pair of verbs, equal
   (generation, epoch, k) with a different family must MISS. Verbs run
   against one live server; each pair loads its own name, so each pair
   starts from a cold cache. *)
let test_cache_kind_isolation () =
  let path = write_csv ~name:"rrr-kinds" ~n:60 ~d:3 ~seed:53 in
  let k = 2 in
  let eng = offline_engine path ~k in
  let verbs = [ "query"; "mrr"; "rank_regret" ] in
  let pairs =
    List.concat_map
      (fun a -> List.filter_map (fun b -> if a = b then None else Some (a, b)) verbs)
      verbs
  in
  with_server ~cache_capacity:64 (fun ~socket_path _server ->
      with_client ~socket_path (fun c ->
          List.iter
            (fun (a, b) ->
              let name = Printf.sprintf "kinds-%s-%s" a b in
              load_and_wait c ~name ~path;
              let _, a_cold = probe c ~op:a ~name ~k in
              Alcotest.(check bool)
                (Printf.sprintf "%s cold after load" a)
                false a_cold;
              (* same (generation, epoch, k), different family: the
                 other verb must not see a's row *)
              let jb, b_cold = probe c ~op:b ~name ~k in
              Alcotest.(check bool)
                (Printf.sprintf "%s misses after %s (kind isolation)" b a)
                false b_cold;
              (* and the miss computed the right answer, not a recycled
                 row of the wrong shape *)
              if b = "rank_regret" then begin
                let sel =
                  Option.bind (Json.member "selection" jb) Json.to_list
                  |> Option.map (List.filter_map Json.to_int)
                  |> Option.get
                in
                let lo =
                  Option.get (Option.bind (Json.member "rank_lo" jb) Json.to_int)
                in
                let hi =
                  Option.get (Option.bind (Json.member "rank_hi" jb) Json.to_int)
                in
                let exact =
                  Option.get (Option.bind (Json.member "exact" jb) Json.to_bool)
                in
                check_wire ~what:(b ^ " after " ^ a) eng ~k (sel, lo, hi, exact)
              end;
              (* sanity: re-asking the same verb IS a hit *)
              let _, a_warm = probe c ~op:a ~name ~k in
              Alcotest.(check bool) (Printf.sprintf "%s warm" a) true a_warm;
              let _, b_warm = probe c ~op:b ~name ~k in
              Alcotest.(check bool) (Printf.sprintf "%s warm" b) true b_warm;
              (* evict purges the registration's cache rows *)
              ignore (or_fail "evict" (Client.evict c ~name ())))
            pairs))

(* ---- serving: one rank table per publication ------------------------------ *)

module Obs = Kregret_obs

let rank_tables () =
  Option.value ~default:0
    (List.assoc_opt "rrr.rank_tables" (Obs.Registry.counters ()))

let with_obs f =
  Obs.Registry.reset ();
  Obs.Control.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.Control.set_enabled false;
      Obs.Registry.reset ())
    f

let wire_rank c ~name ~k =
  or_fail (Printf.sprintf "rank_regret %s k=%d" name k)
    (Client.rank_regret c ~name ~k)

(* Every k over one publication reads one table; an insert republishes,
   so the next read builds one over the live rows; evict and reload is a
   new registration with a new table. *)
let test_serve_one_table_per_publication () =
  let path = write_csv ~name:"rrr-tables" ~n:400 ~d:3 ~seed:83 in
  let base = (Dataset.normalize (Csv_io.load path)).Dataset.points in
  let p = Array.map (fun x -> Float.min 1. (x +. 0.01)) base.(0) in
  (* offline references first: they build tables of their own *)
  let fresh = Array.init 4 (fun i -> Rrr.build ~max_size:(i + 1) base) in
  let inserted = Rrr.build ~max_size:2 (Array.append base [| p |]) in
  with_obs @@ fun () ->
  with_server ~cache_capacity:64 (fun ~socket_path _server ->
      with_client ~socket_path (fun c ->
          load_and_wait c ~name:"tab" ~path;
          let t0 = rank_tables () in
          for k = 1 to 4 do
            check_wire ~what:(Printf.sprintf "fresh k=%d" k) fresh.(k - 1) ~k
              (wire_rank c ~name:"tab" ~k)
          done;
          Alcotest.(check int) "k = 1..4 on a fresh load: one table" (t0 + 1)
            (rank_tables ());
          let id = or_fail "insert" (Client.insert c ~name:"tab" ~point:p) in
          Alcotest.(check int) "the insert takes the next id"
            (Array.length base) id;
          check_wire ~what:"after an insert" inserted ~k:2
            (wire_rank c ~name:"tab" ~k:2);
          Alcotest.(check int) "the read after an insert: one more table"
            (t0 + 2) (rank_tables ());
          ignore (or_fail "evict" (Client.evict c ~name:"tab" ()));
          load_and_wait c ~name:"tab" ~path;
          check_wire ~what:"after evict and reload" fresh.(2) ~k:3
            (wire_rank c ~name:"tab" ~k:3);
          Alcotest.(check int) "evict and reload: one more table" (t0 + 3)
            (rank_tables ())));
  Sys.remove path

(* A rejected insert, a delete of an unknown id and an empty flush move
   neither the epoch nor the basis version, so they keep the publication
   and its table: k = 1, 2, 3 around them build one table between them,
   and answer what the fresh load does. *)
let test_serve_noop_updates_keep_table () =
  let path = write_csv ~name:"rrr-noop" ~n:400 ~d:3 ~seed:84 in
  let base = (Dataset.normalize (Csv_io.load path)).Dataset.points in
  let fresh = Array.init 3 (fun i -> Rrr.build ~max_size:(i + 1) base) in
  with_obs @@ fun () ->
  with_server ~cache_capacity:64 (fun ~socket_path _server ->
      with_client ~socket_path (fun c ->
          load_and_wait c ~name:"noop" ~path;
          let rejected what point =
            match Client.insert c ~name:"noop" ~point with
            | Ok id -> Alcotest.failf "%s: inserted as #%d" what id
            | Error m ->
                Alcotest.(check bool)
                  (Printf.sprintf "%s: bad_point (got %s)" what m)
                  true
                  (Testutil.contains m "bad_point")
          in
          let t0 = rank_tables () in
          check_wire ~what:"k=1" fresh.(0) ~k:1 (wire_rank c ~name:"noop" ~k:1);
          rejected "wrong dimension" [| 0.5; 0.5 |];
          Alcotest.(check bool) "unknown id: not applied" false
            (or_fail "delete" (Client.delete c ~name:"noop" ~id:1_000_000));
          check_wire ~what:"k=2 after a rejected insert and a no-op delete"
            fresh.(1) ~k:2
            (wire_rank c ~name:"noop" ~k:2);
          rejected "out of range" [| 0.5; 1.5; 0.5 |];
          Alcotest.(check int) "empty flush reclaims nothing" 0
            (or_fail "flush" (Client.flush c ~name:"noop"));
          check_wire ~what:"k=3 after a rejected insert and an empty flush"
            fresh.(2) ~k:3
            (wire_rank c ~name:"noop" ~k:3);
          Alcotest.(check int) "no-op updates keep the table" (t0 + 1)
            (rank_tables ());
          (* no live row moved, so the CSV still describes the dataset *)
          let listed = or_fail "list" (Client.list_datasets c) in
          let mutated =
            Option.bind (Json.member "datasets" listed) Json.to_list
            |> Option.value ~default:[]
            |> List.map (fun d -> Option.bind (Json.member "mutated" d) Json.to_bool)
          in
          Alcotest.(check (list (option bool))) "no-op updates: not mutated"
            [ Some false ] mutated));
  Sys.remove path

(* Four clients ask k = 1..4 of one fresh publication at once: one of
   them builds the table, the others wait for it, and all four get the
   offline answers. *)
let test_serve_concurrent_readers_share_table () =
  let path = write_csv ~name:"rrr-share" ~n:2_000 ~d:4 ~seed:89 in
  let base = (Dataset.normalize (Csv_io.load path)).Dataset.points in
  let offline = Array.init 4 (fun i -> Rrr.build ~max_size:(i + 1) base) in
  with_obs @@ fun () ->
  with_server ~cache_capacity:64 (fun ~socket_path _server ->
      with_client ~socket_path (fun c -> load_and_wait c ~name:"share" ~path);
      let t0 = rank_tables () in
      let arrived = Atomic.make 0 in
      let answers = Array.make 4 None in
      let reader k () =
        with_client ~socket_path (fun c ->
            Atomic.incr arrived;
            while Atomic.get arrived < 4 do
              Thread.yield ()
            done;
            answers.(k - 1) <- Some (Client.rank_regret c ~name:"share" ~k))
      in
      List.iter Thread.join
        (List.init 4 (fun i -> Thread.create (reader (i + 1)) ()));
      Alcotest.(check int) "four concurrent readers: one table" (t0 + 1)
        (rank_tables ());
      Array.iteri
        (fun i a ->
          let k = i + 1 in
          match a with
          | Some (Ok a) ->
              check_wire ~what:(Printf.sprintf "concurrent k=%d" k)
                offline.(i) ~k a
          | Some (Error m) -> Alcotest.failf "concurrent k=%d: %s" k m
          | None -> Alcotest.failf "concurrent k=%d: no answer" k)
        answers);
  Sys.remove path

(* A load whose build runs pool regions while an uncached rank_regret
   runs its own on a handler thread: neither is a nested region, so the
   load builds and both answers are right. *)
let test_serve_load_races_rank_regret () =
  let path_a = write_csv ~name:"rrr-race-a" ~n:6_000 ~d:4 ~seed:97 in
  let path_b = write_csv ~name:"rrr-race-b" ~n:6_000 ~d:5 ~seed:101 in
  let rows path = (Dataset.normalize (Csv_io.load path)).Dataset.points in
  with_jobs 2 @@ fun () ->
  with_server ~cache_capacity:64 (fun ~socket_path _server ->
      with_client ~socket_path (fun c ->
          load_and_wait c ~name:"a" ~path:path_a;
          let answer = ref None in
          let reader =
            Thread.create
              (fun () -> answer := Some (Client.rank_regret c ~name:"a" ~k:3))
              ()
          in
          Thread.delay 0.02;
          with_client ~socket_path (fun c2 ->
              load_and_wait c2 ~name:"b" ~path:path_b;
              Thread.join reader;
              (match !answer with
              | Some (Ok a) ->
                  check_wire ~what:"rank_regret beside a load"
                    (Rrr.build ~max_size:3 (rows path_a)) ~k:3 a
              | Some (Error m) -> Alcotest.failf "rank_regret beside a load: %s" m
              | None -> Alcotest.fail "rank_regret beside a load: no answer");
              check_wire ~what:"the raced load"
                (Rrr.build ~max_size:2 (rows path_b)) ~k:2
                (wire_rank c2 ~name:"b" ~k:2))));
  Sys.remove path_a;
  Sys.remove path_b

let suite =
  [
    Alcotest.test_case "lo monotone along prefixes (d=3)" `Quick
      (check_lo_monotone ~d:3 ~n:80 ~seed:1);
    Alcotest.test_case "lo monotone along prefixes (d=2, exact)" `Quick
      (check_lo_monotone ~d:2 ~n:100 ~seed:2);
    Alcotest.test_case "whole skyline realizes rank 1" `Quick
      test_whole_skyline;
    Alcotest.test_case "happy funnel is not rank-complete" `Quick
      test_happy_not_rank_complete;
    Alcotest.test_case "d=2: exact beats direction sampling" `Quick
      test_d2_exact_vs_sampled;
    Alcotest.test_case "degenerate: duplicates" `Quick
      test_degenerate_duplicates;
    Alcotest.test_case "degenerate: collinear d=2" `Quick
      test_degenerate_collinear;
    Alcotest.test_case "degenerate: axis ties" `Quick test_degenerate_axis_ties;
    Alcotest.test_case "single point" `Quick test_single_point;
    Alcotest.test_case "invalid arguments" `Quick test_invalid_args;
    Alcotest.test_case "pool-width bit-identity" `Quick
      test_pool_width_bit_identity;
    Alcotest.test_case "greedy prefix stability" `Quick test_prefix_stability;
    Alcotest.test_case "kernel: sort stress across widths, select = build"
      `Quick test_kernel_sort_stress;
    Alcotest.test_case "serve: wire bit-identity (solo load, cold and warm)"
      `Quick test_serve_bit_identical;
    Alcotest.test_case "serve: cache kind isolation" `Quick
      test_cache_kind_isolation;
    Alcotest.test_case "serve: rank_regret tracks inserts and deletes" `Quick
      test_serve_after_updates;
    Alcotest.test_case "serve: one rank table per publication" `Quick
      test_serve_one_table_per_publication;
    Alcotest.test_case "serve: no-op updates keep the rank table" `Quick
      test_serve_noop_updates_keep_table;
    Alcotest.test_case "serve: concurrent readers share one table" `Quick
      test_serve_concurrent_readers_share_table;
    Alcotest.test_case "serve: a load races an uncached rank_regret" `Quick
      test_serve_load_races_rank_regret;
  ]
