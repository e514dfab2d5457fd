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

let c_rank_tables =
  Obs.Registry.counter "rrr.rank_tables"
    ~help:"rank tables built (net scoring and one sort per direction)"

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
    let nt = Kernel.net ~d ~eps:1.0 in
    { n_dirs = nt.Kernel.dirs; n_res = nt.Kernel.resolution }
  else begin
    let b = float_of_int budget in
    let m = ref (Kernel.resolution_for ~d ~eps:1.0) in
    while Kernel.net_size ~d ~resolution:(!m + 1) <= b do incr m done;
    (* eps = (d-1)/(2m) maps back to exactly m (resolution_for's guard). *)
    let eps = float_of_int (d - 1) /. (2.0 *. float_of_int !m) in
    let nt = Kernel.net ~d ~eps in
    { n_dirs = thin_dirs nt.Kernel.dirs ~budget; n_res = nt.Kernel.resolution }
  end

(* ------------------------------------------------------------------ *)
(* The scan kernel. [Flat.slacks ~offset:0.] scores every row under one
   direction into a caller-owned buffer with the same [dot_stride] fold
   as [Flat.dot] ([x -. 0.] is [x], signed zero and NaN included), so
   every comparison below sees the bits the boxed [Flat.dot] scan saw,
   without boxing a score per row. *)

let score ~flat w scores = Flat.slacks flat ~normal:w ~offset:0. ~out:scores

(* Single-direction rank from a scored buffer:
   1 + #{q : w.q > max over members of w.s}. Same fold discipline as
   everywhere else: member max replaces the incumbent only when
   [not (best >= x)]. *)
let rank_of_scores (scores : float array) ~set =
  let best = ref scores.(set.(0)) in
  for j = 1 to Array.length set - 1 do
    let v = scores.(set.(j)) in
    if not (!best >= v) then best := v
  done;
  let best = !best in
  let beaten = ref 0 in
  for i = 0 to Array.length scores - 1 do
    if Array.unsafe_get scores i > best then incr beaten
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
    let w = Array.make d 0. and scores = Array.make n 0. in
    let best = ref (-1) and best_j = ref 0 in
    for j = a to b - 1 do
      Flat.blit_row dirs j w;
      score ~flat w scores;
      let r = rank_of_scores scores ~set in
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
    let scores = Array.make (Flat.rows flat) 0. in
    score ~flat w scores;
    let r = rank_of_scores scores ~set in
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
(* The rank table: R(j, c) = rank of candidate c under net direction j
   against the full dataset, 1 + #{q : w_j.q > w_j.c}. Per direction:
   score every row into a buffer, sort a copy descending, binary-search
   the strictly-greater count for each candidate. Every rank is an
   integer count from the same float comparisons, so the sort order of
   equal scores can never change one. *)

(* Ranks are <= n + 1, so 32 bits hold them: 4 * directions * candidates
   bytes, stored candidate-major (R(j, c) at c * nd + j) so the greedy
   reads one candidate's column contiguously. *)
type ranks = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

(* [sort_desc a tmp hist len] sorts [a.(0 .. len-1)] (no NaN) descending
   by a least-significant-digit radix sort on the float's order key:
   eight byte passes ping-ponging between [a] and [tmp], a pass skipped
   when every key shares its byte. O(len) on every input — rows come
   from client CSVs and inserts, so no input may drive it quadratic —
   and, with no data-dependent branch, about twice as fast as a
   bottom-up merge sort on 10^4 scores. Returns whichever of [a] and
   [tmp] holds the result. [hist] has 2048 slots.

   The key maps a float to an integer that ascends as the float
   descends: negative floats' bits are complemented, positive floats'
   sign bit is set, and the result complemented. Key order refines float
   order ([-0.] and [0.] get distinct keys but never compare [>]), so the
   strictly-greater binary search below sees a monotone predicate. *)
let[@inline] desc_key x =
  let b = Int64.bits_of_float x in
  Int64.lognot
    (Int64.logxor b (Int64.logor (Int64.shift_right b 63) Int64.min_int))

let[@inline] byte_of x shift =
  Int64.to_int (Int64.shift_right_logical (desc_key x) shift) land 255

let sort_desc (a : float array) (tmp : float array) (hist : int array) len =
  Array.fill hist 0 2048 0;
  for i = 0 to len - 1 do
    let x = Array.unsafe_get a i in
    for p = 0 to 7 do
      let h = (p lsl 8) + byte_of x (8 * p) in
      Array.unsafe_set hist h (Array.unsafe_get hist h + 1)
    done
  done;
  let src = ref a and dst = ref tmp in
  for p = 0 to 7 do
    let base = p lsl 8 in
    (* counts -> start offsets; a byte every key shares needs no pass *)
    let uniform = ref false and sum = ref 0 in
    for b = base to base + 255 do
      let c = Array.unsafe_get hist b in
      if c = len then uniform := true;
      Array.unsafe_set hist b !sum;
      sum := !sum + c
    done;
    if not !uniform then begin
      let s = !src and t = !dst in
      for i = 0 to len - 1 do
        let x = Array.unsafe_get s i in
        let h = base + byte_of x (8 * p) in
        let at = Array.unsafe_get hist h in
        Array.unsafe_set t at x;
        Array.unsafe_set hist h (at + 1)
      done;
      src := t;
      dst := s
    end
  done;
  !src

(* #{i < len : sorted.(i) > scores.(at)}: the index of the first entry
   <= the candidate's score. Taking the index, not the float, keeps the
   score unboxed. *)
let count_gt (sorted : float array) len (scores : float array) at =
  let x = scores.(at) in
  let lo = ref 0 and hi = ref len in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if Array.unsafe_get sorted mid > x then lo := mid + 1 else hi := mid
  done;
  !lo

(* One pool region over direction ranges; each chunk owns its scratch (a
   direction row, three n-float buffers, a histogram) and writes only its
   own directions' slots, so the table is scheduling-independent. A NaN
   score is never greater than anything, so NaNs stay out of the sort and
   every count is #{q : w.q > x} exactly, for a NaN x too. *)
let rank_kernel ~flat ~dirs ~cands (ranks : ranks) =
  let n = Flat.rows flat and d = Flat.dim flat in
  let nd = Flat.rows dirs and nc = Array.length cands in
  (* ~ns per direction: the scoring fold, ~48 per row for the radix
     passes, one binary search per candidate *)
  let log_n = Float.to_int (Float.log2 (float_of_int (n + 1))) + 1 in
  let cost = float_of_int ((n * (d + 48)) + (3 * nc * log_n)) in
  Pool.map_reduce ~lo:0 ~hi:nd ~cost
    ~reduce:(fun () () -> ())
    ~map:(fun a b ->
      let w = Array.make d 0. in
      let scores = Array.make n 0. in
      let buf = Array.make n 0. and tmp = Array.make n 0. in
      let hist = Array.make 2048 0 in
      for j = a to b - 1 do
        Flat.blit_row dirs j w;
        score ~flat w scores;
        let len = ref 0 in
        for i = 0 to n - 1 do
          let x = Array.unsafe_get scores i in
          if x = x then begin
            Array.unsafe_set buf !len x;
            incr len
          end
        done;
        let len = !len in
        let sorted = sort_desc buf tmp hist len in
        for c = 0 to nc - 1 do
          let r = 1 + count_gt sorted len scores cands.(c) in
          Bigarray.Array1.unsafe_set ranks ((c * nd) + j) (Int32.of_int r)
        done
      done)
    ()

type table = {
  tb_points : Vector.t array;
  tb_flat : Flat.t;
  tb_net : net;
  tb_sky : int array;
  tb_cands : int array;
  tb_ranks : ranks;
}

let table ?(budget = default_budget) ?candidates points =
  Obs.Counter.incr c_rank_tables;
  Obs.Span.with_ "rrr.table" @@ fun () ->
  let n = Array.length points in
  if n = 0 then invalid_arg "Rrr.table: empty dataset";
  if budget < 1 then invalid_arg "Rrr.table: budget must be positive";
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
  let dirs = net.n_dirs in
  let ranks =
    Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout
      (Flat.rows dirs * Array.length cands)
  in
  rank_kernel ~flat ~dirs ~cands ranks;
  {
    tb_points = points;
    tb_flat = flat;
    tb_net = net;
    tb_sky = sky;
    tb_cands = cands;
    tb_ranks = ranks;
  }

(* ------------------------------------------------------------------ *)

type t = {
  t_d : int;
  t_net : net;
  t_sky : int array;
  t_cands : int array;
  t_order : int array;
  t_bounds : rank array;
}

let select ?max_size tb =
  Obs.Counter.incr c_builds;
  Obs.Span.with_ "rrr.select" @@ fun () ->
  (match max_size with
  | Some m when m < 1 -> invalid_arg "Rrr.select: max_size must be positive"
  | _ -> ());
  let points = tb.tb_points and flat = tb.tb_flat and cands = tb.tb_cands in
  let ranks = tb.tb_ranks in
  let n = Flat.rows flat and d = Flat.dim flat in
  let nc = Array.length cands in
  let dirs = tb.tb_net.n_dirs in
  let nd = Flat.rows dirs in
  (* Greedy: cur.(j) is the running set rank under direction j (n + 1
     sentinel = empty set); candidate c would improve it to
     min cur.(j) R(j, c). Pick the candidate minimizing the max — strict
     < keeps the first (lowest-position) candidate on ties, and
     map_reduce folds chunks left to right, so the choice is pool-width
     independent. A candidate's running max only grows along j, so its
     scan stops once it reaches the chunk's best: it can no longer win. *)
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
          let base = c * nd in
          let worst = ref 0 and j = ref 0 in
          while !j < nd && !worst < !best do
            let r = Int32.to_int (Bigarray.Array1.unsafe_get ranks (base + !j)) in
            let cj = Array.unsafe_get cur !j in
            let r = if cj < r then cj else r in
            if r > !worst then worst := r;
            incr j
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
      let base = c * nd in
      for j = 0 to nd - 1 do
        let r = Int32.to_int (Bigarray.Array1.unsafe_get ranks (base + j)) in
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
          (* cur.(j) IS the rank of the prefix under the j-th direction
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
    t_d = d;
    t_net = tb.tb_net;
    t_sky = tb.tb_sky;
    t_cands = cands;
    t_order = Array.of_list (List.rev !order);
    t_bounds = Array.of_list (List.rev !bounds);
  }

let build ?budget ?max_size ?candidates points =
  Obs.Span.with_ "rrr.build" @@ fun () ->
  select ?max_size (table ?budget ?candidates points)

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

let size_for t ~target =
  let rec go i =
    if i >= Array.length t.t_bounds then None
    else if t.t_bounds.(i).hi <= target then Some (i + 1)
    else go (i + 1)
  in
  go 0
