module Vector = Kregret_geom.Vector
module Matrix = Kregret_geom.Matrix
module Flat = Kregret_geom.Flat
module Obs = Kregret_obs

(* Observability: the double-description walk is sequential, so every count
   is a pure function of the constraint sequence. *)
let c_created =
  Obs.Registry.counter "dd.vertices_created"
    ~help:"vertices materialised (seed corners + cut intersections)"

let c_dropped =
  Obs.Registry.counter "dd.vertices_dropped"
    ~help:"vertices removed as cut off by a new constraint"

let c_constraints =
  Obs.Registry.counter "dd.constraints" ~help:"user constraints inserted"

let c_redundant =
  Obs.Registry.counter "dd.redundant_constraints"
    ~help:"inserted constraints that cut no vertex"

let c_dedup =
  Obs.Registry.counter "dd.dedup_hits"
    ~help:"candidate vertices rejected as duplicates of an accepted vertex"

type vertex = { id : int; w : Vector.t; tight : int array; bits : int array }

type t = {
  d : int;
  bound : float;
  (* constraint j: normals.(j) . w <= offsets.(j).
     Layout: 0..d-1 nonnegativity (-w_i <= 0), d..2d-1 box (w_i <= bound),
     2d.. user constraints. The normals live twice: flat in [cons] for the
     per-constraint dot sweeps (compute_tight, contains) and boxed in
     [normals] so the adjacency rank tests can share row pointers with
     {!Matrix.rank} without copying. *)
  mutable normals : Vector.t array;
  mutable offsets : float array;
  mutable ncons : int;
  cons : Flat.t;
  vertices : (int, vertex) Hashtbl.t;
  (* Flat mirror of the live vertex coordinates (ISSUE 6): row [r] of
     [store] belongs to vertex [ids.(r)] and [row_of_id] inverts that.
     Removal is swap-remove — the last row drops into the hole — so the
     row order is a pure function of the operation sequence and the hot
     sweeps (slack classification, max-dot, GeoGreedy's champion kernel)
     stream one contiguous buffer instead of walking the hashtable. *)
  store : Flat.t;
  mutable ids : int array;
  row_of_id : (int, int) Hashtbl.t;
  mutable next_id : int;
  mutable slack_buf : float array; (* scratch for the classification sweep *)
  class_eps : float; (* strictly-inside / on / cut classification *)
  tight_eps : float; (* tight-set recomputation *)
}

type event = {
  removed : int list;
  created : vertex list;
  touched : vertex list;
  redundant : bool;
}

let dim t = t.d
let num_vertices t = Hashtbl.length t.vertices
let num_constraints t = t.ncons - (2 * t.d)

(* store order: deterministic given the operation sequence *)
let vertices t =
  let out = ref [] in
  for r = Flat.rows t.store - 1 downto 0 do
    out := Hashtbl.find t.vertices t.ids.(r) :: !out
  done;
  !out

let find_vertex t id = Hashtbl.find_opt t.vertices id
let flat_view t = (t.store, t.ids)

let grow t =
  if t.ncons = Array.length t.normals then begin
    let cap = max 16 (2 * t.ncons) in
    let normals = Array.make cap [||] in
    let offsets = Array.make cap 0. in
    Array.blit t.normals 0 normals 0 t.ncons;
    Array.blit t.offsets 0 offsets 0 t.ncons;
    t.normals <- normals;
    t.offsets <- offsets
  end

let push_constraint t normal offset =
  grow t;
  let j = t.ncons in
  t.normals.(j) <- normal;
  t.offsets.(j) <- offset;
  Flat.push_row t.cons normal;
  t.ncons <- j + 1;
  j

let slack t j w = Flat.dot t.cons j w -. t.offsets.(j)

(* Tolerances scale with the vertex magnitude so that vertices sitting on the
   (potentially huge) artificial bounding box are classified as robustly as
   the unit-scale vertices the regret queries care about. *)
let vertex_scale w = Float.max 1. (Vector.norm_inf w)

(* Tight sets also live as bitsets: constraint [j] is bit [j mod 62] of
   word [j / 62]. 62 bits keep every word non-negative, which the SWAR
   popcount below relies on. *)
let word_bits = 62

(* SWAR popcount of a word in [0, 2^62): pair, nibble and byte partial
   sums, then one multiply gathers the byte sums into the top byte. OCaml
   5.1 has no popcount primitive. *)
let[@inline] popcount x =
  let x = x - ((x lsr 1) land 0x1555_5555_5555_5555) in
  let m2 = 0x3333_3333_3333_3333 in
  let x = (x land m2) + ((x lsr 2) land m2) in
  let x = (x + (x lsr 4)) land 0x0f0f_0f0f_0f0f_0f0f in
  (x * 0x0101_0101_0101_0101) lsr 56

(* Exact tight set of a point against all current constraints, as the
   sorted index array and as its bitset. The one place tight sets are
   computed, so created and touched vertices carry both. *)
let compute_tight t w =
  let eps = t.tight_eps *. vertex_scale w in
  let bits = Array.make (((t.ncons - 1) / word_bits) + 1) 0 in
  let out = ref [] in
  for j = t.ncons - 1 downto 0 do
    if abs_float (slack t j w) <= eps then begin
      out := j :: !out;
      let k = j / word_bits in
      bits.(k) <- bits.(k) lor (1 lsl (j - (k * word_bits)))
    end
  done;
  (Array.of_list !out, bits)

let store_push t id (w : Vector.t) =
  Flat.push_row t.store w;
  let r = Flat.rows t.store - 1 in
  if r >= Array.length t.ids then begin
    let cap = max 16 (2 * Array.length t.ids) in
    let ids = Array.make cap (-1) in
    Array.blit t.ids 0 ids 0 (Array.length t.ids);
    t.ids <- ids
  end;
  t.ids.(r) <- id;
  Hashtbl.replace t.row_of_id id r

let store_remove t id =
  let r = Hashtbl.find t.row_of_id id in
  let last = Flat.rows t.store - 1 in
  Flat.swap_remove t.store r;
  Hashtbl.remove t.row_of_id id;
  if r <> last then begin
    let moved = t.ids.(last) in
    t.ids.(r) <- moved;
    Hashtbl.replace t.row_of_id moved r
  end

let fresh_vertex t w =
  Obs.Counter.incr c_created;
  let id = t.next_id in
  t.next_id <- id + 1;
  let tight, bits = compute_tight t w in
  let v = { id; w; tight; bits } in
  Hashtbl.replace t.vertices id v;
  store_push t id w;
  v

(* [create] seeds the vertex set with every corner of the bounding box:
   2^d vertices of d floats each. d = 17 would already allocate >1M corner
   vectors (~200 MB at d = 20) before any constraint arrives, far past the
   practical range of the dual-polytope index (the paper tops out at d = 10
   and EXPERIMENTS.md shows the face count exploding well before that), so
   the constructor refuses instead of silently thrashing. *)
let max_dim = 16

let create ?(bound = 1e3) ~dim () =
  if dim < 1 || dim > max_dim then
    invalid_arg
      (Printf.sprintf
         "Dd.create: dim %d out of [1, %d] (the seed box enumerates 2^d \
          corner vertices; beyond %d that is >10^5 allocations before any \
          work happens)"
         dim max_dim max_dim);
  let t =
    {
      d = dim;
      bound;
      normals = [||];
      offsets = [||];
      ncons = 0;
      cons = Flat.create ~capacity:32 ~dim ();
      vertices = Hashtbl.create 64;
      store = Flat.create ~capacity:64 ~dim ();
      ids = Array.make 64 (-1);
      row_of_id = Hashtbl.create 64;
      next_id = 0;
      slack_buf = Array.make 64 0.;
      class_eps = 1e-9;
      tight_eps = 1e-8;
    }
  in
  for i = 0 to dim - 1 do
    ignore (push_constraint t (Vector.scale (-1.) (Vector.basis dim i)) 0.)
  done;
  for i = 0 to dim - 1 do
    ignore (push_constraint t (Vector.basis dim i) bound)
  done;
  (* box corners *)
  for mask = 0 to (1 lsl dim) - 1 do
    let w =
      Array.init dim (fun i -> if mask land (1 lsl i) <> 0 then bound else 0.)
    in
    ignore (fresh_vertex t w)
  done;
  t

(* u and v, sharing [common] tight constraints by the popcount pre-test
   in [add_constraint], are adjacent iff those constraints span a
   rank-(d-1) subspace (Fukuda–Prodon algebraic adjacency). The rank test
   gets the common normals in ascending constraint order. *)
let rank_adjacent t u v common =
  let a = u.bits and b = v.bits in
  let m = Array.make common [||] and r = ref 0 in
  for k = 0 to min (Array.length a) (Array.length b) - 1 do
    let x = ref (a.(k) land b.(k)) and j = ref (k * word_bits) in
    while !x <> 0 do
      if !x land 1 = 1 then begin
        m.(!r) <- t.normals.(!j);
        incr r
      end;
      x := !x lsr 1;
      incr j
    done
  done;
  Matrix.rank m >= t.d - 1

let add_constraint t ~normal ~offset =
  if Vector.dim normal <> t.d then
    invalid_arg "Dd.add_constraint: dimension mismatch";
  Obs.Counter.incr c_constraints;
  (* Classification sweep as one linear pass over the flat store — the
     former per-vertex [Vector.dot] hashtable walk was the Dd hot loop
     (ISSUE 6). The lists come out in store-row order, so the whole event
     (creation order, ids, dedup decisions) stays deterministic. *)
  let nrows = Flat.rows t.store in
  if Array.length t.slack_buf < nrows then
    t.slack_buf <- Array.make (max nrows (2 * Array.length t.slack_buf)) 0.;
  Flat.slacks t.store ~normal ~offset ~out:t.slack_buf;
  let cut = ref [] and kept_strict = ref [] and on = ref [] in
  for r = nrows - 1 downto 0 do
    let v = Hashtbl.find t.vertices t.ids.(r) in
    let s = t.slack_buf.(r) in
    let eps = t.class_eps *. vertex_scale v.w in
    if s > eps then cut := (v, s) :: !cut
    else if s < -.eps then kept_strict := (v, s) :: !kept_strict
    else on := v :: !on
  done;
  let j = push_constraint t normal offset in
  (* vertices exactly on the new hyperplane gain it in their tight set *)
  let touched =
    List.map
      (fun v ->
        let tight, bits = compute_tight t v.w in
        let v' = { v with tight; bits } in
        Hashtbl.replace t.vertices v.id v';
        v')
      !on
  in
  match !cut with
  | [] ->
      Obs.Counter.incr c_redundant;
      { removed = []; created = []; touched; redundant = true }
  | cut_list ->
      (* candidate new vertices: intersections of edges (u kept, v cut) *)
      let created = ref [] in
      let eps_dup = 10. *. t.tight_eps in
      let too_close x y = Vector.equal ~eps:eps_dup x y in
      (* Duplicate probe: the former [List.exists] over created @ on made
         degenerate cuts O(|candidates|^2). Instead hash every accepted
         vertex under a scalar key — a fixed positive combination h.x
         quantised to buckets wider than the key drift eps_dup * sum h of
         any two eps_dup-close points — and re-check [too_close] only in
         the candidate's bucket and its two neighbours. Exact same accept /
         reject decisions, amortised O(1) per candidate. *)
      let hcoef i = 1. +. (0.6180339887498949 *. float_of_int i) in
      let hkey x =
        let s = ref 0. in
        Array.iteri (fun i xi -> s := !s +. (hcoef i *. xi)) x;
        !s
      in
      let hsum =
        let s = ref 0. in
        for i = 0 to t.d - 1 do
          s := !s +. hcoef i
        done;
        !s
      in
      let bucket_w = Float.max 1e-300 (2. *. eps_dup *. hsum) in
      let bucket x = int_of_float (Float.floor (hkey x /. bucket_w)) in
      let buckets : (int, Vector.t list) Hashtbl.t = Hashtbl.create 64 in
      let remember x =
        let k = bucket x in
        let prev = try Hashtbl.find buckets k with Not_found -> [] in
        Hashtbl.replace buckets k (x :: prev)
      in
      let dup x =
        let k = bucket x in
        List.exists
          (fun k ->
            match Hashtbl.find_opt buckets k with
            | Some l -> List.exists (fun y -> too_close y x) l
            | None -> false)
          [ k - 1; k; k + 1 ]
      in
      List.iter (fun v -> remember v.w) !on;
      let consider x =
        if dup x then Obs.Counter.incr c_dedup
        else begin
          remember x;
          created := fresh_vertex t x :: !created
        end
      in
      (* Every (cut, kept) pair, cut-list order outer. Almost every pair
         shares fewer than d-1 tight constraints; a popcount of the AND-ed
         bitsets rejects those in O(words) with no allocation, before the
         rank test. The kept side's words sit in one flat buffer, [w] per
         vertex (zero-padded: a vertex born under fewer constraints has
         fewer words), so the scan streams. *)
      let kept = Array.of_list !kept_strict in
      let nk = Array.length kept in
      let w = ((t.ncons - 1) / word_bits) + 1 in
      let padded bits =
        let out = Array.make w 0 in
        Array.blit bits 0 out 0 (Array.length bits);
        out
      in
      let kept_words = Array.make (nk * w) 0 in
      Array.iteri
        (fun i (u, _) -> Array.blit (padded u.bits) 0 kept_words (i * w) w)
        kept;
      List.iter
        (fun (v, sv) ->
          let vw = padded v.bits and need = t.d - 1 in
          let pair i common =
            let u, su = kept.(i) in
            if rank_adjacent t u v common then begin
              let alpha = su /. (su -. sv) in
              consider (Vector.lerp u.w v.w alpha)
            end
          in
          (* one word covers 2d + |S| <= 62 constraints, the common
             case (k = 32 up to d = 15); skipping the word loop there
             saves ~25% of GeoGreedy at d = 9 *)
          if w = 1 then begin
            let v0 = vw.(0) in
            for i = 0 to nk - 1 do
              let common = popcount (Array.unsafe_get kept_words i land v0) in
              if common >= need then pair i common
            done
          end
          else
            for i = 0 to nk - 1 do
              let common = ref 0 in
              for k = 0 to w - 1 do
                common :=
                  !common
                  + popcount
                      (Array.unsafe_get kept_words ((i * w) + k)
                      land Array.unsafe_get vw k)
              done;
              if !common >= need then pair i !common
            done)
        cut_list;
      List.iter
        (fun (v, _) ->
          Hashtbl.remove t.vertices v.id;
          store_remove t v.id)
        cut_list;
      Obs.Counter.add c_dropped (List.length cut_list);
      ignore j;
      {
        removed = List.map (fun (v, _) -> v.id) cut_list;
        created = !created;
        touched;
        redundant = false;
      }

let max_dot t q =
  if Flat.rows t.store = 0 then
    invalid_arg "Dd.max_dot: polytope has no vertices";
  let r, x = Flat.argmax_dot t.store q in
  (Hashtbl.find t.vertices t.ids.(r), x)

let contains ~eps t w =
  let ok = ref true in
  let j = ref 0 in
  while !ok && !j < t.ncons do
    if slack t !j w > eps then ok := false;
    incr j
  done;
  !ok

let check_invariants t =
  Hashtbl.iter
    (fun _ v ->
      if not (contains ~eps:1e-7 t v.w) then
        failwith
          (Format.asprintf "Dd: vertex %d = %a violates a constraint" v.id
             Vector.pp v.w);
      let recomputed, bits = compute_tight t v.w in
      (* a vertex born under fewer constraints has fewer words; the
         missing high words are zero *)
      let word b k = if k < Array.length b then b.(k) else 0 in
      let stale_bits = ref false in
      for k = 0 to max (Array.length bits) (Array.length v.bits) - 1 do
        if word bits k <> word v.bits k then stale_bits := true
      done;
      if recomputed <> v.tight || !stale_bits then
        failwith (Printf.sprintf "Dd: vertex %d has a stale tight set" v.id);
      let m = Array.map (fun j -> t.normals.(j)) v.tight in
      if Matrix.rank m < t.d then
        failwith
          (Printf.sprintf "Dd: vertex %d tight set has rank < d" v.id))
    t.vertices;
  (* the flat mirror must agree with the hashtable bit for bit *)
  if Flat.rows t.store <> Hashtbl.length t.vertices then
    failwith "Dd: flat store row count disagrees with the vertex table";
  for r = 0 to Flat.rows t.store - 1 do
    let id = t.ids.(r) in
    (match Hashtbl.find_opt t.row_of_id id with
    | Some r' when r' = r -> ()
    | _ -> failwith (Printf.sprintf "Dd: row_of_id stale for vertex %d" id));
    match Hashtbl.find_opt t.vertices id with
    | None -> failwith (Printf.sprintf "Dd: store row %d has no vertex" r)
    | Some v ->
        for c = 0 to t.d - 1 do
          if
            Int64.bits_of_float (Flat.get t.store r c)
            <> Int64.bits_of_float v.w.(c)
          then
            failwith
              (Printf.sprintf "Dd: store row %d diverges from vertex %d" r id)
        done
  done;
  (* the flat constraint matrix mirrors the boxed normals *)
  if Flat.rows t.cons <> t.ncons then
    failwith "Dd: flat constraint matrix out of sync";
  for j = 0 to t.ncons - 1 do
    for c = 0 to t.d - 1 do
      if
        Int64.bits_of_float (Flat.get t.cons j c)
        <> Int64.bits_of_float t.normals.(j).(c)
      then failwith (Printf.sprintf "Dd: flat constraint %d diverges" j)
    done
  done
