module Vector = Kregret_geom.Vector
module Dual_polytope = Kregret_hull.Dual_polytope
module Regret_lp = Kregret_lp.Regret_lp
module Rng = Kregret_dataset.Rng
module Pool = Kregret_parallel.Pool
module Obs = Kregret_obs

let c_sampled =
  Obs.Registry.counter "mrr.sampled_directions"
    ~help:"random directions evaluated by the Monte-Carlo mrr estimator"

let check ~selected =
  if selected = [] then invalid_arg "Mrr: empty selection"

(* Q(S) of a selection *)
let polytope ~selected =
  check ~selected;
  let d = Vector.dim (List.hd selected) in
  (* exact bound for Q(S): w_i <= 1 / max_{p in S} p_i *)
  let col_max = Array.make d 0. in
  List.iter
    (fun p ->
      for i = 0 to d - 1 do
        if p.(i) > col_max.(i) then col_max.(i) <- p.(i)
      done)
    selected;
  let worst = Array.fold_left Float.min infinity col_max in
  if worst <= 0. then invalid_arg "Mrr.geometric: selection has a zero column";
  let bound = 1.05 /. worst in
  let dp = Dual_polytope.create ~bound ~dim:d () in
  List.iter (fun p -> ignore (Dual_polytope.insert dp p)) selected;
  dp

let geometric ~data ~selected =
  Dual_polytope.max_regret_ratio (polytope ~selected) ~data

let critical_ratios ~selected points =
  Array.map (Dual_polytope.critical_ratio (polytope ~selected)) points

let lp ~data ~selected =
  check ~selected;
  Regret_lp.max_regret_ratio ~data ~selected ()

let regret_for_weight ~weight ~data ~selected =
  check ~selected;
  let best pts = List.fold_left (fun acc p -> Float.max acc (Vector.dot weight p)) 0. pts in
  let u_all = best data and u_sel = best selected in
  if u_all <= 0. then 0. else Float.max 0. (1. -. (u_sel /. u_all))

let finite_class ~weights ~data ~selected =
  check ~selected;
  List.fold_left
    (fun acc weight -> Float.max acc (regret_for_weight ~weight ~data ~selected))
    0. weights

(* Random non-negative directions: half Gaussian-orthant (uniform on the
   positive part of the sphere), half sparse — a random subset of axes with
   random positive weights — to probe the low-dimensional faces where maxima
   of the regret function often sit. *)
let random_direction rng d =
  if Rng.float rng < 0.5 then
    Vector.normalize
      (Array.init d (fun _ -> abs_float (Rng.gaussian rng ~mu:0. ~sigma:1.)))
  else begin
    (* Sparse branch: [support] *distinct* axes via a partial Fisher–Yates
       shuffle. The old loop drew axes with replacement, so collisions
       silently shrank the support — a draw of "support = d" produced a
       full-support direction only ~d!/d^d of the time, starving the
       estimator of exactly the high-support sparse probes it advertises.
       Weights are >= 0.05, so the norm is always positive and no zero-guard
       is needed. Consumes 2*support draws after the support draw; the
       block-split determinism of [sampled] is unaffected (each block owns
       its own generator). *)
    let v = Array.make d 0. in
    let support = 1 + Rng.int rng d in
    let axes = Array.init d Fun.id in
    for i = 0 to support - 1 do
      let j = i + Rng.int rng (d - i) in
      let a = axes.(j) in
      axes.(j) <- axes.(i);
      axes.(i) <- a;
      v.(a) <- 0.05 +. Rng.float rng
    done;
    Vector.normalize v
  end

(* The sample budget is carved into fixed blocks of [sample_block]
   directions, each owned by an Rng derived from the caller's generator by
   sequential [Rng.split]s. Block layout depends only on [samples] (never
   on the pool width) and [Float.max] over non-NaN floats is exact and
   associative, so the estimate is bit-identical for every jobs count —
   the qcheck determinism suite pins this down. *)
let sample_block = 64

let sampled ~rng ~samples ~data ~selected =
  check ~selected;
  let d = Vector.dim (List.hd selected) in
  if samples <= 0 then 0.
  else begin
    let blocks = (samples + sample_block - 1) / sample_block in
    let rngs = Array.make blocks rng in
    for b = 0 to blocks - 1 do
      rngs.(b) <- Rng.split rng
    done;
    Pool.map_reduce ~lo:0 ~hi:blocks ~chunk_size:1
      ~map:(fun b _ ->
        let r = rngs.(b) in
        let count = min sample_block (samples - (b * sample_block)) in
        (* per-block flush: block sizes depend only on [samples] *)
        Obs.Counter.add c_sampled count;
        let acc = ref 0. in
        for _ = 1 to count do
          let weight = random_direction r d in
          acc := Float.max !acc (regret_for_weight ~weight ~data ~selected)
        done;
        !acc)
      ~reduce:Float.max 0.
  end
