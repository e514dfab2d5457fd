module Vector = Kregret_geom.Vector
module Flat = Kregret_geom.Flat
module Dataset = Kregret_dataset.Dataset
module Pool = Kregret_parallel.Pool
module Obs = Kregret_obs

(* Observability: accumulated per victim / per candidate — a pure function
   of the input, never of the pool width (see PR 1 determinism contract). *)
let c_candidates =
  Obs.Registry.counter "happy.candidates"
    ~help:"skyline candidates screened for happiness"

let c_kept =
  Obs.Registry.counter "happy.kept" ~help:"happy points surviving the screen"

let c_pruned =
  Obs.Registry.counter "happy.pruned" ~help:"candidates pruned as subjugated"

let c_probes =
  Obs.Registry.counter "happy.subjugation_probes"
    ~help:"pairwise subjugation probes performed"

let c_skips =
  Obs.Registry.counter "happy.certified_skips"
    ~help:"pairwise subjugation probes skipped on a certificate"

let c_cut_vertices =
  Obs.Registry.counter "happy.cut_box_vertices"
    ~help:"dual vertices enumerated across all cut boxes"

(* the screen's geometric slop: every membership and hyperplane test
   allows this much *)
let eps = 1e-9

let cut_box_vertices q =
  let d = Vector.dim q in
  if d > 20 then invalid_arg "Happy.cut_box_vertices: d > 20";
  let out = ref [] in
  for mask = 0 to (1 lsl d) - 1 do
    let corner =
      Array.init d (fun i -> if mask land (1 lsl i) <> 0 then 1. else 0.)
    in
    let s = Vector.dot corner q in
    if s <= 1. +. eps then out := corner :: !out;
    (* edges leaving this corner upward in dimension i (bit i clear): the cut
       hyperplane crosses the edge when s < 1 < s + q_i *)
    for i = 0 to d - 1 do
      if mask land (1 lsl i) = 0 then begin
        let s_top = s +. q.(i) in
        if s < 1. -. eps && s_top > 1. +. eps then begin
          let w = Array.copy corner in
          w.(i) <- (1. -. s) /. q.(i);
          out := w :: !out
        end
      end
    done
  done;
  !out

(* Corner [mask] of the unit box, written into [corner]; returns its dot
   with [q], the [s] every V_q row of this corner is built from. *)
let corner_sum corner mask q =
  for i = 0 to Array.length corner - 1 do
    corner.(i) <- (if mask land (1 lsl i) <> 0 then 1. else 0.)
  done;
  Vector.dot_unsafe corner q

(* The V_q row on the box edge that leaves [corner] (dot [s] with [q])
   upward in dimension [i], whose bit must be clear: present when the cut
   hyperplane crosses the edge, s < 1 < s + q_i with [eps] margins, and
   then written into [row]. The enumerator and the certificate both build
   their rows here, so a certificate row is bit for bit a row the
   membership sweep tests. *)
let edge_row q corner s i row =
  s < 1. -. eps
  && s +. q.(i) > 1. +. eps
  &&
  (Array.blit corner 0 row 0 (Array.length corner);
   row.(i) <- (1. -. s) /. q.(i);
   true)

(* Flat variant of [cut_box_vertices]: the same corner/edge enumeration in
   the same order, written straight into a flat SoA buffer through two
   reusable scratch rows — no per-vertex boxed allocation. The happy screen
   enumerates these sets for every skyline point inside a parallel region;
   on OCaml 5 the allocation traffic of the boxed version was minor-GC
   pressure that every domain paid for in stop-the-world syncs. *)
let cut_box_vertices_flat q =
  let d = Vector.dim q in
  if d > 20 then invalid_arg "Happy.cut_box_vertices_flat: d > 20";
  let out = Flat.create ~capacity:64 ~dim:d () in
  let corner = Array.make d 0. and edge = Array.make d 0. in
  (* The rows come out in [cut_box_vertices]'s cons-reversed probe order —
     masks descending, edges (descending i) before their corner — because
     the membership sweep's early exit depends on it: heavy corners (many
     coordinates at 1) are the rows most likely to refute [w . p <= 1], and
     starting from the all-zero corner instead costs a full extra pass per
     probe on average. Verdicts are order-independent; only speed isn't. *)
  for mask = (1 lsl d) - 1 downto 0 do
    let s = corner_sum corner mask q in
    for i = d - 1 downto 0 do
      if mask land (1 lsl i) = 0 && edge_row q corner s i edge then
        Flat.push_row out edge
    done;
    if s <= 1. +. eps then Flat.push_row out corner
  done;
  out

(* Relative margin for the float error of the certificate and the cutoff:
   every sum involved has at most 2d + 1 non-negative terms, so its error
   is within (2d + 2) ulps, far below 1e-12 for any d the enumerator
   accepts. *)
let margin = 1e-12

(* The certificate α_q (DESIGN.md §2): the coordinates of q lie on a
   circle of circumference Σq, dimension i owning an arc of length q_i. A
   unit window slid around the circle is a point of Q_q on w·q = 1
   (coordinate i = covered share of arc i), and over one turn it covers
   every arc a fraction 1/Σq of the time. The window moves linearly between
   the breakpoints where one of its ends meets an arc boundary, and at a
   breakpoint it is the V_q row of the corner of fully covered arcs and
   the edge of the partial one. So the breakpoint rows, each weighted by
   half the gap to its two neighbours, average to (1/Σq)·1. α_q is the
   smallest coordinate of that weighted average as computed, rounded down;
   0 when Σq <= 1, some q_i is not positive, or a breakpoint row is not in
   V_q. Only soundness needs proof: any non-negative weights on rows of
   V_q give a valid certificate. *)
let certificate q =
  let d = Vector.dim q in
  let sum = Vector.sum q in
  if (not (sum > 1.)) || Array.exists (fun x -> not (x > 0.)) q then 0.
  else begin
    let start = Array.make (d + 1) 0. in
    for i = 0 to d - 1 do
      start.(i + 1) <- start.(i) +. q.(i)
    done;
    (* breakpoint [2a]: the window starts where arc [a] starts; [2b + 1]:
       it ends where arc [b] ends. Each maps to (position, mask, partial
       arc), the mask grown from the aligned end while arcs fit whole. *)
    let breakpoint k =
      let aligned = k / 2 and forward = k mod 2 = 0 in
      let step i = if forward then (i + 1) mod d else (i + d - 1) mod d in
      let rec grow i mask rem n =
        if n < d && q.(i) <= rem then
          grow (step i) (mask lor (1 lsl i)) (rem -. q.(i)) (n + 1)
        else (mask, i)
      in
      let mask, partial = grow aligned 0 1. 0 in
      let t =
        if forward then start.(aligned)
        else
          let t = start.(aligned + 1) -. 1. in
          if t < 0. then t +. sum else t
      in
      (t, mask, partial)
    in
    let bps = Array.init (2 * d) breakpoint in
    Array.sort (fun (a, _, _) (b, _, _) -> Float.compare a b) bps;
    let m = Array.length bps in
    let corner = Array.make d 0. and row = Array.make d 0. in
    let acc = Array.make d 0. and weight = ref 0. in
    let rec add k =
      if k = m then true
      else begin
        let t, mask, partial = bps.(k) in
        let prev, _, _ = bps.((k + m - 1) mod m)
        and next, _, _ = bps.((k + 1) mod m) in
        let gap_prev = if k = 0 then t +. sum -. prev else t -. prev
        and gap_next = if k = m - 1 then next +. sum -. t else next -. t in
        let mu = Float.max 0. (0.5 *. (gap_prev +. gap_next)) in
        let s = corner_sum corner mask q in
        mask land (1 lsl partial) = 0
        && edge_row q corner s partial row
        && begin
             for i = 0 to d - 1 do
               acc.(i) <- acc.(i) +. (mu *. row.(i))
             done;
             weight := !weight +. mu;
             add (k + 1)
           end
      end
    in
    if add 0 && !weight > 0. then
      Array.fold_left Float.min infinity acc /. !weight *. (1. -. margin)
    else 0.
  end

(* Victim [p] skips every q with α_q above this: α_q·Σp then exceeds
   (1 + eps) with the margins to spare. Infinite (no skip) unless p >= 0,
   which the bound α_q·Σp <= c·p needs. *)
let skip_threshold p =
  let mass = if Array.for_all (fun x -> x >= 0.) p then Vector.sum p else 0. in
  (1. +. eps) *. (1. +. margin) /. (mass *. (1. -. margin))

(* "p is on or below every hyperplane of Y(q)" == p is in the polytope P_q,
   tested against all dual vertices. *)
let inside_pq vertices p =
  List.for_all (fun w -> Vector.dot w p <= 1. +. eps) vertices

(* "p is on every hyperplane of Y(q)": the common intersection of the
   non-origin facet hyperplanes of P_q is {sum x = 1} when q is inside the
   unit simplex and the single point {q} otherwise (see .mli). *)
let on_all_hyperplanes q p =
  if Vector.sum q <= 1. +. eps then abs_float (Vector.sum p -. 1.) <= eps
  else Vector.equal ~eps p q

let subjugator q =
  let vertices = cut_box_vertices q in
  fun p -> inside_pq vertices p && not (on_all_hyperplanes q p)

let subjugates q p = subjugator q p

let is_happy ~candidates p =
  not
    (List.exists
       (fun q -> (not (Vector.equal ~eps:0. q p)) && subjugates q p)
       candidates)

type screen = {
  points : Vector.t array;
  vertex_sets : Flat.t array;
  alpha : float array;
  probe_order : int array;
  sorted_alpha : float array;  (* [alpha] in probe order *)
}

let prepare points =
  let n = Array.length points in
  let d = if n = 0 then 1 else Vector.dim points.(0) in
  let dummy = Flat.create ~dim:d () in
  let vertex_sets = Array.make n dummy in
  let alpha = Array.make n 0. in
  (* each [Q_q] vertex enumeration and its certificate are independent:
     fan out over the pool. Cost hint: one enumeration walks 2^d corners at
     ~d ns-scale work each, plus the buffer writes *)
  Pool.parallel_for
    ~cost:(20. *. float_of_int ((1 lsl d) * d))
    ~lo:0 ~hi:n
    (fun i ->
      let vs = cut_box_vertices_flat points.(i) in
      Obs.Counter.add c_cut_vertices (Flat.rows vs);
      vertex_sets.(i) <- vs;
      alpha.(i) <- certificate points.(i));
  (* Probe order: ascending α, then coordinate sum descending, then index.
     α is about 1/Σq, so strong subjugators (large [P_q], early exits for
     most victims) still come first, and every victim's certified skips
     form a suffix of the order. *)
  let sums = Array.map Vector.sum points in
  let probe_order = Array.init n Fun.id in
  Array.sort
    (fun a b ->
      match Float.compare alpha.(a) alpha.(b) with
      | 0 -> (
          match Float.compare sums.(b) sums.(a) with 0 -> compare a b | c -> c)
      | c -> c)
    probe_order;
  let sorted_alpha = Array.map (fun j -> alpha.(j)) probe_order in
  { points; vertex_sets; alpha; probe_order; sorted_alpha }

(* The membership test [p in P_q] streams each flat vertex set with an
   early-exit dot sweep — the same conjunction the boxed List.for_all
   computes. Victim [p] probes only the prefix of q with α_q <= its
   threshold: past it, a certificate row refutes [p in P_q] (see .mli), so
   the verdict there is false without a probe. It reads the screen only,
   so verdicts of different victims may run on different domains. *)
let verdict s i =
  let n = Array.length s.points in
  let p = s.points.(i) in
  let threshold = skip_threshold p in
  (* first position whose α exceeds the threshold *)
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if s.sorted_alpha.(mid) > threshold then hi := mid else lo := mid + 1
  done;
  let cutoff = !lo in
  let bound = 1. +. eps in
  let witness = ref (-1) and probes = ref 0 and pos = ref 0 in
  while !witness < 0 && !pos < cutoff do
    let j = s.probe_order.(!pos) in
    if j <> i then begin
      incr probes;
      let q = s.points.(j) in
      if
        (not (Vector.equal ~eps:0. q p))
        && Flat.for_all_dot_le s.vertex_sets.(j) p bound
        && not (on_all_hyperplanes q p)
      then witness := j
    end;
    incr pos
  done;
  Obs.Counter.incr c_candidates;
  Obs.Counter.add c_probes !probes;
  if !witness < 0 then begin
    Obs.Counter.incr c_kept;
    Obs.Counter.add c_skips
      (n - cutoff - if s.alpha.(i) > threshold then 1 else 0);
    None
  end
  else begin
    Obs.Counter.incr c_pruned;
    Some !witness
  end

let verdicts points =
  let s = prepare points in
  let n = Array.length points in
  let out = Array.make n None in
  (* per-victim verdicts are independent of each other, so the quadratic
     subjugation loop fans out too; they land in disjoint slots, identical
     for every pool width *)
  Pool.parallel_for
    ~cost:(30. *. float_of_int n)
    ~lo:0 ~hi:n
    (fun i -> out.(i) <- verdict s i);
  out

let happy_points points =
  let v = verdicts points in
  let out = ref [] in
  for i = Array.length v - 1 downto 0 do
    if Option.is_none v.(i) then out := i :: !out
  done;
  Array.of_list !out

let of_dataset ds =
  let sky = Kregret_skyline.Skyline.of_dataset ds in
  let indices = happy_points sky.Dataset.points in
  let sub = Dataset.sub sky ~indices in
  { sub with Dataset.name = ds.Dataset.name ^ "/happy" }
