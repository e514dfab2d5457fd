(* Rank-regret representatives. See rrr.mli for the geometry; DESIGN.md
   §"Rank-regret" for the exactness/certification arguments. *)

module Vector = Kregret_geom.Vector
module Flat = Kregret_geom.Flat
module Pool = Kregret_parallel.Pool
module Skyline = Kregret_skyline.Skyline
module Dual_polytope = Kregret_hull.Dual_polytope
module Kernel = Kregret_approx.Kernel
module Obs = Kregret_obs

let c_builds = Obs.Registry.counter "rrr.builds" ~help:"rank-regret engine builds"

let c_rank_evals =
  Obs.Registry.counter "rrr.rank_evals" ~help:"certified max-rank evaluations"

let c_greedy_steps =
  Obs.Registry.counter "rrr.greedy_steps" ~help:"greedy selection steps"

let h_set_size =
  Obs.Registry.histogram "rrr.set_size"
    ~help:"greedy selection sizes at build completion"
    ~buckets:[| 1.; 2.; 4.; 8.; 16.; 32.; 64.; 128. |]

type rank = { lo : int; hi : int; witness : float array; exact : bool }

let default_budget = 1024

(* The direction set actually scanned: the grid net at the chosen
   resolution, possibly thinned to the budget. *)
type net = { n_dirs : Flat.t; n_res : int }

(* In high dimension even the coarsest net the eps API can express
   (eps = 1) exceeds the budget; keep every stride-th direction then.
   [lo] is a realized-witness bound — sound for any direction subset —
   and the stride is a pure function of the counts, so the thinned set
   is deterministic. *)
let thin_dirs dirs ~budget =
  let nd = Flat.rows dirs in
  if nd <= budget then dirs
  else begin
    let stride = ((nd + budget) - 1) / budget in
    let out =
      Flat.create
        ~capacity:(((nd + stride) - 1) / stride)
        ~dim:(Flat.dim dirs) ()
    in
    let j = ref 0 in
    while !j < nd do
      Flat.push_row out (Flat.row dirs !j);
      j := !j + stride
    done;
    out
  end

(* Finest resolution whose net fits the budget, never below the eps = 1
   minimum grid (eps = (d-1)/(2m) must stay in (0, 1]). d = 1 has the
   single direction [|1.|]. *)
let make_net ~d ~budget =
  if d = 1 then
    let nt = Kernel.net ~d ~eps:1.0 () in
    { n_dirs = nt.Kernel.dirs; n_res = nt.Kernel.resolution }
  else begin
    let b = float_of_int budget in
    let m = ref (Kernel.resolution_for ~d ~eps:1.0) in
    while Kernel.net_size ~d ~resolution:(!m + 1) <= b do incr m done;
    (* eps = (d-1)/(2m) maps back to exactly m (resolution_for's guard). *)
    let eps = float_of_int (d - 1) /. (2.0 *. float_of_int !m) in
    let nt = Kernel.net ~d ~eps () in
    { n_dirs = thin_dirs nt.Kernel.dirs ~budget; n_res = nt.Kernel.resolution }
  end

(* ------------------------------------------------------------------ *)
(* Single-direction rank: 1 + #{q : w.q > max over members of w.s}.
   Same fold discipline as everywhere else: member max replaces the
   incumbent only when [not (best >= x)]. *)

let rank_under ~flat ~set w =
  let best = ref (Flat.dot flat set.(0) w) in
  for j = 1 to Array.length set - 1 do
    let v = Flat.dot flat set.(j) w in
    if not (!best >= v) then best := v
  done;
  let best = !best in
  let beaten = ref 0 in
  let n = Flat.rows flat in
  for i = 0 to n - 1 do
    if Flat.dot flat i w > best then incr beaten
  done;
  1 + !beaten

(* ------------------------------------------------------------------ *)
(* d = 2: exact sweep over the pairwise crossing arrangement.

   w = (t, 1-t), t in (0, 1). Pair (q, s): the beat score difference is
   f(t) = b + t (a - b) with a = qx - sx, b = qy - sy — affine in t, so
   the beat predicate flips at most once, at t* = b / (b - a), and a
   flip inside (0, 1) requires a and b of strictly opposite signs.

   Float edges: a computed t* that rounds to 0 means the crossing sits
   below float resolution at the left end — start in the post-crossing
   state instead of emitting an unreachable event; a t* that rounds to
   1 never fires inside the open interval, so it is dropped. Events at
   bit-equal t are applied as one batch between interval evaluations,
   which is what makes exact duplicate/collinear degeneracies safe:
   their crossings share bit-identical crossing parameters. *)

let max_rank_2d ~flat ~set =
  let n = Flat.rows flat in
  let m = Array.length set in
  let xs = Array.init n (fun i -> Flat.get flat i 0) in
  let ys = Array.init n (fun i -> Flat.get flat i 1) in
  (* beat state per (point, member) pair, pair id = i * m + j *)
  let beats = Bytes.make (n * m) '\000' in
  let cnt = Array.make n 0 in
  let full = ref 0 in
  let events = ref [] in
  let n_events = ref 0 in
  for i = 0 to n - 1 do
    for j = 0 to m - 1 do
      let s = set.(j) in
      let a = xs.(i) -. xs.(s) and b = ys.(i) -. ys.(s) in
      let beat0 = b > 0. || (b = 0. && a > 0.) in
      let beat =
        if (a > 0. && b < 0.) || (a < 0. && b > 0.) then begin
          let ts = b /. (b -. a) in
          if ts <= 0. then not beat0 (* crossing under float resolution *)
          else if ts >= 1. then beat0 (* never fires inside (0, 1) *)
          else begin
            events := (ts, (i * m) + j) :: !events;
            incr n_events;
            beat0
          end
        end
        else beat0
      in
      if beat then begin
        Bytes.set beats ((i * m) + j) '\001';
        cnt.(i) <- cnt.(i) + 1
      end
    done;
    if cnt.(i) = m then incr full
  done;
  let ev = Array.of_list !events in
  (* (t, pair) lexicographic: deterministic batch order; no NaNs here
     (opposite signs make b - a nonzero and finite). *)
  Array.sort compare ev;
  let ne = Array.length ev in
  let best = ref 0 and best_t = ref 0.5 in
  let prev = ref 0. in
  (* evaluate the open interval (!prev, upto) under the current state *)
  let flush upto =
    if upto > !prev then begin
      let r = 1 + !full in
      if r > !best then begin
        best := r;
        best_t := 0.5 *. (!prev +. upto)
      end
    end
  in
  let i = ref 0 in
  while !i < ne do
    let t, _ = ev.(!i) in
    flush t;
    while
      !i < ne
      &&
      let t', _ = ev.(!i) in
      t' = t
    do
      let _, p = ev.(!i) in
      let q = p / m in
      if Bytes.get beats p <> '\000' then begin
        Bytes.set beats p '\000';
        if cnt.(q) = m then decr full;
        cnt.(q) <- cnt.(q) - 1
      end
      else begin
        Bytes.set beats p '\001';
        cnt.(q) <- cnt.(q) + 1;
        if cnt.(q) = m then incr full
      end;
      incr i
    done;
    prev := t
  done;
  flush 1.;
  (!best, [| !best_t; 1. -. !best_t |])

(* ------------------------------------------------------------------ *)
(* d >= 3 lower bound: best rank realized on the direction net. The
   fold keeps the first direction attaining the max (strict > within a
   chunk, strict > across the left-to-right chunk fold). *)

let net_lo ~flat ~set net =
  let dirs = net.n_dirs in
  let nd = Flat.rows dirs in
  let n = Flat.rows flat in
  let d = Flat.dim flat in
  let cost = float_of_int (n * d * 4) in
  let map a b =
    let best = ref (-1) and best_j = ref 0 in
    for j = a to b - 1 do
      let r = rank_under ~flat ~set (Flat.row dirs j) in
      if r > !best then begin
        best := r;
        best_j := j
      end
    done;
    (!best, !best_j)
  in
  let reduce (r1, j1) (r2, j2) = if r2 > r1 then (r2, j2) else (r1, j1) in
  let r, j = Pool.map_reduce ~lo:0 ~hi:nd ~cost ~map ~reduce (-1, 0) in
  (r, Flat.row dirs j)

(* Upper bound via the dual polytope: q can outrank every member of S
   under some direction iff some vertex v of Q(S) has q.v > 1 (scale
   the witness w to member-max 1: it lands inside Q(S)). The bounding
   box must not clip the true Q(S), so its bound comes from the
   SELECTION's per-dimension maxima — 1.05 / min_i (max over members of
   coordinate i) dominates every w_i <= 1 / colmax_i attainable in
   Q(S). (Mrr.geometric can use the dataset's maxima only because its
   selections always contain the per-dimension boundary points.) *)

let dual_hi ~points ~flat ~set =
  let d = Flat.dim flat in
  let colmax = Array.make d neg_infinity in
  Array.iter
    (fun s ->
      let p = points.(s) in
      for j = 0 to d - 1 do
        if p.(j) > colmax.(j) then colmax.(j) <- p.(j)
      done)
    set;
  let mincol = Array.fold_left min infinity colmax in
  let bound = 1.05 /. mincol in
  let q = Dual_polytope.create ~bound ~dim:d () in
  Array.iter (fun s -> ignore (Dual_polytope.insert q points.(s))) set;
  let verts, _ids = Dual_polytope.flat_view q in
  let n = Flat.rows flat in
  let targets = Array.init n (fun i -> i) in
  let out_row = Array.make n (-1) and out_val = Array.make n nan in
  let cost = float_of_int (Flat.rows verts * d * 4) in
  Pool.map_reduce ~lo:0 ~hi:n ~cost
    ~map:(fun a b ->
      ignore
        (Flat.champions ~vertices:verts ~cands:flat targets ~tlo:a ~thi:b
           ~out_row ~out_val))
    ~reduce:(fun () () -> ())
    ();
  let beaten = ref 0 in
  for i = 0 to n - 1 do
    if out_val.(i) > 1.0 then incr beaten
  done;
  1 + !beaten

(* ------------------------------------------------------------------ *)

let validate_set ~n set =
  if Array.length set = 0 then invalid_arg "Rrr: empty member set";
  Array.iter
    (fun i ->
      if i < 0 || i >= n then invalid_arg "Rrr: member index out of range")
    set

let eval_rank ~points ~flat ~net set =
  Obs.Counter.incr c_rank_evals;
  let d = Flat.dim flat in
  if d = 1 then begin
    let w = [| 1.0 |] in
    let r = rank_under ~flat ~set w in
    { lo = r; hi = r; witness = w; exact = true }
  end
  else if d = 2 then begin
    let r, w = max_rank_2d ~flat ~set in
    { lo = r; hi = r; witness = w; exact = true }
  end
  else begin
    let lo, w = net_lo ~flat ~set net in
    let hi0 = dual_hi ~points ~flat ~set in
    (* DD vertex coordinates are rounded; never certify hi below a
       realized witness, nor above n (the best member outranks at most
       the other n - 1 points — a rounded vertex can otherwise count a
       member as beating its own set). *)
    let hi = min (Flat.rows flat) (if hi0 < lo then lo else hi0) in
    { lo; hi; witness = w; exact = lo = hi }
  end

let max_rank ?(budget = default_budget) ~points set =
  let n = Array.length points in
  if n = 0 then invalid_arg "Rrr.max_rank: empty dataset";
  if budget < 1 then invalid_arg "Rrr.max_rank: budget must be positive";
  validate_set ~n set;
  let d = Vector.dim points.(0) in
  let flat = Flat.of_rows points in
  let net = make_net ~d ~budget in
  eval_rank ~points ~flat ~net set

(* ------------------------------------------------------------------ *)

type t = {
  t_points : Vector.t array;
  t_d : int;
  t_net : net;
  t_sky : int array;
  t_cands : int array;
  t_order : int array;
  t_bounds : rank array;
}

let build ?(budget = default_budget) ?max_size ?candidates points =
  Obs.Counter.incr c_builds;
  Obs.Span.with_ "rrr.build" @@ fun () ->
  let n = Array.length points in
  if n = 0 then invalid_arg "Rrr.build: empty dataset";
  if budget < 1 then invalid_arg "Rrr.build: budget must be positive";
  (match max_size with
  | Some m when m < 1 -> invalid_arg "Rrr.build: max_size must be positive"
  | _ -> ());
  let d = Vector.dim points.(0) in
  let flat = Flat.of_rows points in
  let net = make_net ~d ~budget in
  let sky, cands =
    match candidates with
    | Some c ->
        validate_set ~n c;
        ([||], Array.copy c)
    | None ->
        (* the skyline, NOT the happy funnel: for w >= 0 a dominator
           scores at least its dominee, so rank_w(dominator) <=
           rank_w(dominee) and the skyline is rank-complete. Subjugation
           (the happy filter) only bounds scores against the virtual
           corners — max(w.q, ||w||_inf) >= w.p says nothing pointwise —
           so a non-happy skyline point can be the strict top-1 of a
           direction and the happy set can be impossible to drive to
           rank 1. *)
        let sky = Skyline.sfs points in
        (sky, Array.copy sky)
  in
  let nc = Array.length cands in
  let dirs = net.n_dirs in
  let nd = Flat.rows dirs in
  (* Rank matrix: matrix.(j * nc + c) = rank of candidate c under net
     direction j vs the full dataset. Per direction: score everything,
     sort a copy descending, binary-search the strictly-greater count —
     each direction owns its matrix row, so the parallel_for writes are
     disjoint and the values scheduling-independent. *)
  let matrix = Array.make (nd * nc) 0 in
  let cost = float_of_int ((n * d * 4) + (n * 30)) in
  Pool.parallel_for ~lo:0 ~hi:nd ~cost (fun j ->
      let w = Flat.row dirs j in
      let scores = Array.init n (fun i -> Flat.dot flat i w) in
      let sorted = Array.copy scores in
      Array.sort (fun (x : float) y -> compare y x) sorted;
      let count_gt x =
        (* index of the first sorted entry <= x *)
        let lo = ref 0 and hi = ref n in
        while !lo < !hi do
          let mid = (!lo + !hi) / 2 in
          if sorted.(mid) > x then lo := mid + 1 else hi := mid
        done;
        !lo
      in
      let row = j * nc in
      Array.iteri (fun c id -> matrix.(row + c) <- 1 + count_gt scores.(id)) cands);
  (* Greedy: cur.(j) is the running set rank under direction j (n + 1
     sentinel = empty set); candidate c would improve it to
     min cur.(j) matrix.(j)(c). Pick the candidate minimizing the max —
     strict < keeps the first (lowest-position) candidate on ties, and
     map_reduce folds chunks left to right, so the choice is pool-width
     independent. *)
  let cap = match max_size with Some m -> min m nc | None -> nc in
  let cur = Array.make nd (n + 1) in
  let taken = Array.make nc false in
  let order = ref [] and bounds = ref [] and len = ref 0 in
  let stop = ref false in
  let eval_cost = float_of_int (nd * 4) in
  while (not !stop) && !len < cap do
    let map a b =
      let best = ref max_int and best_c = ref (-1) in
      for c = a to b - 1 do
        if not taken.(c) then begin
          let row_c = c in
          let worst = ref 0 in
          for j = 0 to nd - 1 do
            let r = matrix.((j * nc) + row_c) in
            let r = if cur.(j) < r then cur.(j) else r in
            if r > !worst then worst := r
          done;
          if !worst < !best then begin
            best := !worst;
            best_c := c
          end
        end
      done;
      (!best, !best_c)
    in
    let reduce (v1, c1) (v2, c2) =
      if c1 < 0 then (v2, c2)
      else if c2 >= 0 && v2 < v1 then (v2, c2)
      else (v1, c1)
    in
    let _, c =
      Pool.map_reduce ~lo:0 ~hi:nc ~cost:eval_cost ~map ~reduce (max_int, -1)
    in
    if c < 0 then stop := true
    else begin
      taken.(c) <- true;
      for j = 0 to nd - 1 do
        let r = matrix.((j * nc) + c) in
        if r < cur.(j) then cur.(j) <- r
      done;
      order := cands.(c) :: !order;
      incr len;
      Obs.Counter.incr c_greedy_steps;
      let prefix = Array.of_list (List.rev !order) in
      let b =
        if d = 1 then begin
          (* the single net direction covers all of R+ exactly *)
          let w = [| 1.0 |] in
          let r = cur.(0) in
          { lo = r; hi = r; witness = w; exact = true }
        end
        else if d = 2 then begin
          let r, w = max_rank_2d ~flat ~set:prefix in
          { lo = r; hi = r; witness = w; exact = true }
        end
        else begin
          (* cur.(j) IS rank_under the j-th direction for the prefix
             (same integer min-fold), so lo needs no rescan. *)
          let lo = ref 0 and lo_j = ref 0 in
          for j = 0 to nd - 1 do
            if cur.(j) > !lo then begin
              lo := cur.(j);
              lo_j := j
            end
          done;
          let hi0 = dual_hi ~points ~flat ~set:prefix in
          let hi = min n (if hi0 < !lo then !lo else hi0) in
          {
            lo = !lo;
            hi;
            witness = Flat.row dirs !lo_j;
            exact = !lo = hi;
          }
        end
      in
      Obs.Counter.incr c_rank_evals;
      bounds := b :: !bounds;
      if b.hi <= 1 then stop := true
    end
  done;
  Obs.Histogram.observe h_set_size (float_of_int !len);
  {
    t_points = points;
    t_d = d;
    t_net = net;
    t_sky = sky;
    t_cands = cands;
    t_order = Array.of_list (List.rev !order);
    t_bounds = Array.of_list (List.rev !bounds);
  }

let query t ~k =
  if k < 1 then invalid_arg "Rrr.query: k must be positive";
  let len = Array.length t.t_order in
  let take = if k < len then k else len in
  ( Array.to_list (Array.sub t.t_order 0 take),
    t.t_bounds.(take - 1) )

let order t = Array.copy t.t_order
let bounds t = Array.copy t.t_bounds
let size t = Array.length t.t_order
let sky_ids t = Array.copy t.t_sky
let cand_ids t = Array.copy t.t_cands
let directions t = Flat.rows t.t_net.n_dirs
let resolution t = t.t_net.n_res
let dim t = t.t_d

let size_for t ~target =
  let rec go i =
    if i >= Array.length t.t_bounds then None
    else if t.t_bounds.(i).hi <= target then Some (i + 1)
    else go (i + 1)
  in
  go 0
