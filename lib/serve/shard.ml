module Vector = Kregret_geom.Vector
module Skyline = Kregret_skyline.Skyline
module Happy = Kregret_happy.Happy
module Stored_list = Kregret.Stored_list
module Kernel = Kregret_approx.Kernel
module Obs = Kregret_obs

let c_builds =
  Obs.Registry.counter "serve.shard.builds" ~help:"shard-tier builds completed"

let c_local =
  Obs.Registry.counter "serve.shard.local_pipelines"
    ~help:"per-shard scatter surfaces computed inside shard-tier builds"

type t = {
  s_n : int;
  s_n_sky : int;
  s_ids : int array;  (* coordinator list, original row ids *)
  s_mrr : float array;  (* mrr of each coordinator prefix *)
  s_n_happy : int;
  s_kernel : int;  (* global kernel size; 0 = exact *)
  s_points : Vector.t array;  (* the full normalized input (shared, not copied) *)
  s_sky_ids : int array;
      (* merged skyline, original row ids — bit-identical to the
         monolithic skyline in exact mode (the shard-merge invariant),
         the kernel-restricted skyline in approx mode. Sibling query
         engines (rank-regret) take these as their candidate set: the
         skyline is rank-complete, the happy funnel is not. *)
}

(* one shard's scatter surface as original row ids ([off] maps chunk rows
   back): the chunk's skyline, or its ε-kernel in approx mode *)
let scatter_surface ?approx ~off chunk =
  Obs.Counter.incr c_local;
  let ids =
    match approx with
    | None -> Skyline.sfs chunk
    | Some a -> (Kernel.reduce ~eps:a chunk).Kernel.ids
  in
  Array.map (fun i -> off + i) ids

let create ?max_length ?approx ~shards points =
  let n = Array.length points in
  if n = 0 then invalid_arg "Shard.create: empty dataset";
  let shards = max 1 (min shards n) in
  (* contiguous partition: chunk c covers [starts.(c), starts.(c+1)), the
     first [n mod shards] chunks one row longer *)
  let base = n / shards and extra = n mod shards in
  let starts = Array.make (shards + 1) 0 in
  for c = 0 to shards - 1 do
    starts.(c + 1) <- starts.(c) + base + (if c < extra then 1 else 0)
  done;
  (* gather: the concatenated local scatter surfaces, in shard (= row)
     order — ascending original ids, since shards are contiguous and
     each local surface is sorted *)
  let union_ids =
    Array.concat
      (List.init shards (fun c ->
           let off = starts.(c) in
           scatter_surface ?approx ~off
             (Array.sub points off (starts.(c + 1) - off))))
  in
  let union_vecs = Array.map (fun id -> points.(id)) union_ids in
  (* approx: rescan the union so the merged kernel is exactly the
     ε-kernel of the whole dataset. Per direction the global winner
     (smallest-id maximizer) wins its own shard's scan, so it is in the
     union, and a first-wins scan over the ascending-id union picks it
     again — merged = solo, bit for bit, for every shard count. *)
  let gather_ids, gather_vecs, kernel_size =
    match approx with
    | None -> (union_ids, union_vecs, 0)
    | Some a ->
        let red = Kernel.reduce ~eps:a ~ids:union_ids union_vecs in
        let k_ids = red.Kernel.ids in
        (k_ids, Array.map (fun id -> points.(id)) k_ids, Array.length k_ids)
  in
  let sky_idx = Skyline.sfs gather_vecs in
  let sky_vecs = Array.map (fun i -> gather_vecs.(i)) sky_idx in
  let sky_ids = Array.map (fun i -> gather_ids.(i)) sky_idx in
  let hap_idx = Happy.happy_points sky_vecs in
  let hap_ids = Array.map (fun i -> gather_ids.(sky_idx.(i))) hap_idx in
  let hap_vecs = Array.map (fun i -> sky_vecs.(i)) hap_idx in
  let ids, mrr =
    if Array.length hap_vecs = 0 then ([||], [||])
    else begin
      let stored = Stored_list.preprocess ?max_length hap_vecs in
      let len = Stored_list.length stored in
      let order = Array.of_list (Stored_list.order stored) in
      ( Array.map (fun i -> hap_ids.(i)) order,
        Array.init len (fun i -> Stored_list.mrr_at stored ~k:(i + 1)) )
    end
  in
  Obs.Counter.incr c_builds;
  {
    s_n = n;
    s_n_sky = Array.length sky_idx;
    s_ids = ids;
    s_mrr = mrr;
    s_n_happy = Array.length hap_ids;
    s_kernel = kernel_size;
    s_points = points;
    s_sky_ids = sky_ids;
  }

let n t = t.s_n
let n_sky t = t.s_n_sky
let n_happy t = t.s_n_happy
let stored_length t = Array.length t.s_ids
let kernel_size t = t.s_kernel

let query t ~k =
  if k < 1 then invalid_arg "Shard.query: k must be positive";
  let len = Array.length t.s_ids in
  if len = 0 then ([], 0.)
  else
    let take = min k len in
    (Array.to_list (Array.sub t.s_ids 0 take), t.s_mrr.(take - 1))

(* Rank-regret over the sharded tier: the merged skyline is the
   candidate pool and the full retained input is the ranking universe, so
   the engine sees exactly the monolithic inputs — answers are
   bit-identical to a solo build for every shard count. *)
let rank_regret t ~k =
  if k < 1 then invalid_arg "Shard.rank_regret: k must be positive";
  let eng =
    Kregret_rrr.Rrr.build ~max_size:k ~candidates:t.s_sky_ids t.s_points
  in
  Kregret_rrr.Rrr.query eng ~k
