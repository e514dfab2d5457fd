module Vector = Kregret_geom.Vector
module Flat = Kregret_geom.Flat
module Dataset = Kregret_dataset.Dataset
module Pool = Kregret_parallel.Pool
module Obs = Kregret_obs

(* Observability: every count below is accumulated per point or per chunk —
   a pure function of the input, never of the pool width — so the merged
   totals are bit-identical across KREGRET_JOBS values. *)
let c_scanned =
  Obs.Registry.counter "skyline.points_scanned"
    ~help:"points fed to a skyline computation"

let c_dom =
  Obs.Registry.counter "skyline.dominance_tests"
    ~help:"pairwise dominance comparisons"

let c_survivors =
  Obs.Registry.counter "skyline.survivors" ~help:"skyline points returned"

(* Each point's verdict is independent of the others', so the O(n^2) scan
   fans out across the domain pool; verdicts land in disjoint slots of
   [keep] and the survivor list is rebuilt in index order afterwards, which
   makes the result identical for every pool width. The dominance tests run
   over a flat SoA view of the points (ISSUE 6): the inner scan streams one
   contiguous buffer instead of chasing a pointer per row. *)
let naive points =
  let n = Array.length points in
  Obs.Counter.add c_scanned n;
  let fp = if n = 0 then Flat.create ~dim:1 () else Flat.of_rows points in
  let keep = Array.make n false in
  (* cost hint: each verdict scans up to n rows at a few ns per early-exit
     dominance test *)
  Pool.parallel_for ~cost:(5. *. float_of_int n) ~lo:0 ~hi:n (fun i ->
      let excluded = ref false in
      let tests = ref 0 in
      (* dominated by anyone, or duplicated by an earlier point *)
      for j = 0 to n - 1 do
        if (not !excluded) && j <> i then begin
          incr tests;
          match Dominance.compare_flat fp j i with
          | Dominance.Dominates -> excluded := true
          | Dominance.Equal when j < i -> excluded := true
          | Dominance.Equal | Dominance.Dominated | Dominance.Incomparable ->
              ()
        end
      done;
      Obs.Counter.add c_dom !tests;
      keep.(i) <- not !excluded);
  let out = ref [] in
  for i = n - 1 downto 0 do
    if keep.(i) then out := i :: !out
  done;
  let result = Array.of_list !out in
  Obs.Counter.add c_survivors (Array.length result);
  result

let bnl points =
  let n = Array.length points in
  Obs.Counter.add c_scanned n;
  let fp = if n = 0 then Flat.create ~dim:1 () else Flat.of_rows points in
  let window = ref [] in
  for i = 0 to n - 1 do
    let survives = ref true in
    let tests = ref 0 in
    let kept =
      List.filter
        (fun j ->
          if !survives then begin
            incr tests;
            match Dominance.compare_flat fp j i with
            | Dominance.Dominates | Dominance.Equal ->
                survives := false;
                true
            | Dominance.Dominated -> false
            | Dominance.Incomparable -> true
          end
          else true)
        !window
    in
    Obs.Counter.add c_dom !tests;
    window := if !survives then i :: kept else kept
  done;
  let result = Array.of_list !window in
  Array.sort compare result;
  Obs.Counter.add c_survivors (Array.length result);
  result

(* [covers buf a b d]: the stride-[d] row at offset [a] of [buf] has no
   coordinate strictly below the row at offset [b] — it dominates or equals
   it, [Dominance.compare_flat]'s [Dominates | Equal] verdict (NaN
   coordinates included), without the variant or the bounds check. Offsets
   are in range by construction in [sfs]. *)
let covers (buf : float array) a b d =
  let k = ref 0 in
  while
    !k < d
    && not (Array.unsafe_get buf (a + !k) < Array.unsafe_get buf (b + !k))
  do
    incr k
  done;
  !k = d

(* Rows per block of the SFS walk: each block costs two pool regions and at
   most block^2 / 2 in-block tests, both small against its window scan. *)
let block = 512

(* Sort key: coordinate sum descending, then coordinates lexicographically
   descending, then id ascending. Float addition is monotone, so a
   dominator's sum is never below its dominee's; when rounding ties them
   the first differing coordinate still orders the dominator first, and an
   equal point with a lower id sorts first too. *)
let sort_order points =
  let score = Array.map Vector.sum points in
  let order = Array.init (Array.length points) Fun.id in
  let by_key i j =
    let c = Float.compare score.(j) score.(i) in
    if c <> 0 then c
    else
      let p = points.(i) and q = points.(j) in
      let rec lex k =
        if k = Array.length p then Int.compare i j
        else
          let c = Float.compare q.(k) p.(k) in
          if c <> 0 then c else lex (k + 1)
      in
      lex 0
  in
  Array.stable_sort by_key order;
  order

(* A point survives iff no point sorted before it covers it; by the key
   above that is exactly [naive]'s rule (no dominator, no lower-id equal).
   Rows are copied in sort order into one stride-d buffer whose prefix
   holds the window of survivors so far. Each block is filtered twice in
   parallel: against the window (phase 1), then each phase-1 survivor
   against the block's earlier phase-1 survivors (phase 2) — covering is
   transitive, so testing a superset of the earlier survivors that is a
   subset of the earlier rows gives the sequential verdict. Every verdict
   and every test count is a pure function of the input, so ids and
   counters are identical at every pool width. *)
let sfs points =
  let n = Array.length points in
  Obs.Counter.add c_scanned n;
  if n = 0 then [||]
  else begin
    let d = Array.length points.(0) in
    if Array.exists (fun p -> Array.length p <> d) points then
      invalid_arg "Skyline.sfs: dimension mismatch";
    let order = sort_order points in
    let buf = Array.create_float (n * d) in
    Array.iteri (fun r i -> Array.blit points.(i) 0 buf (r * d) d) order;
    let fresh = Array.make n false and kept = Array.make n false in
    let w = ref 0 in
    for b = 0 to (n - 1) / block do
      let lo = b * block and hi = min n ((b + 1) * block) and wn = !w in
      (* cost hints: a few ns per early-exit test, one test per window row
         (phase 1) or per earlier block row (phase 2) at most *)
      Pool.parallel_for ~cost:(2. *. float_of_int (wn + 1)) ~lo ~hi
        (fun r ->
          let ro = r * d in
          let t = ref 0 in
          while !t < wn && not (covers buf (!t * d) ro d) do
            incr t
          done;
          Obs.Counter.add c_dom (min wn (!t + 1));
          fresh.(r) <- !t = wn);
      Pool.parallel_for ~cost:(float_of_int (hi - lo)) ~lo ~hi (fun r ->
          if fresh.(r) then begin
            let ro = r * d in
            let s = ref lo and tests = ref 0 and survives = ref true in
            while !survives && !s < r do
              if fresh.(!s) then begin
                incr tests;
                if covers buf (!s * d) ro d then survives := false
              end;
              incr s
            done;
            Obs.Counter.add c_dom !tests;
            kept.(r) <- !survives
          end);
      (* the block's survivors join the window — rows in the prefix of
         [buf], ids in the prefix of [order] — in sort order; a row only
         ever moves to a lower slot, so this in-place compaction is safe *)
      for r = lo to hi - 1 do
        if kept.(r) then begin
          Array.blit buf (r * d) buf (!w * d) d;
          order.(!w) <- order.(r);
          incr w
        end
      done
    done;
    let result = Array.sub order 0 !w in
    Array.sort Int.compare result;
    Obs.Counter.add c_survivors !w;
    result
  end

let of_dataset ds =
  let sub = Dataset.sub ds ~indices:(sfs ds.Dataset.points) in
  { sub with Dataset.name = ds.Dataset.name ^ "/sky" }
