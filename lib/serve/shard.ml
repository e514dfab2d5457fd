module Skyline = Kregret_skyline.Skyline
module Stored_list = Kregret.Stored_list
module Kernel = Kregret_approx.Kernel
module Obs = Kregret_obs

let c_builds =
  Obs.Registry.counter "serve.shard.builds" ~help:"shard-tier builds completed"

let c_local =
  Obs.Registry.counter "serve.shard.local_pipelines"
    ~help:"per-shard scatter surfaces computed inside shard-tier builds"

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

let gather ?approx ~shards points =
  let n = Array.length points in
  if n = 0 then invalid_arg "Shard.gather: empty dataset";
  let shards = max 1 (min shards n) in
  (* contiguous partition: chunk c covers [starts.(c), starts.(c+1)), the
     first [n mod shards] chunks one row longer *)
  let base = n / shards and extra = n mod shards in
  let starts = Array.make (shards + 1) 0 in
  for c = 0 to shards - 1 do
    starts.(c + 1) <- starts.(c) + base + (if c < extra then 1 else 0)
  done;
  (* the concatenated local scatter surfaces, in shard (= row) order —
     ascending original ids, since shards are contiguous and each local
     surface is sorted *)
  let union_ids =
    Array.concat
      (List.init shards (fun c ->
           let off = starts.(c) in
           scatter_surface ?approx ~off
             (Array.sub points off (starts.(c + 1) - off))))
  in
  (* approx: rescan the union so the merged kernel is exactly the
     ε-kernel of the whole dataset. Per direction the global winner
     (smallest-id maximizer) wins its own shard's scan, so it is in the
     union, and a first-wins scan over the ascending-id union picks it
     again — merged = solo, bit for bit, for every shard count. *)
  match approx with
  | None -> union_ids
  | Some a ->
      (Kernel.reduce ~eps:a ~ids:union_ids
         (Array.map (fun id -> points.(id)) union_ids))
        .Kernel.ids

let create ?max_length ?approx ~shards points =
  let ids = gather ?approx ~shards points in
  let f = Stored_list.funnel ?max_length (Array.map (fun i -> points.(i)) ids) in
  let to_ids idx = Array.map (fun i -> ids.(i)) idx in
  let order, mrr =
    Kregret.Snapshot.prefix f.Stored_list.stored ~ids:(to_ids f.Stored_list.happy)
  in
  let n = Array.length points in
  let basis =
    {
      Kregret.Snapshot.ids = Array.init n Fun.id;
      rows = points;
      candidates = to_ids f.Stored_list.sky;
    }
  in
  Obs.Counter.incr c_builds;
  {
    Kregret.Snapshot.epoch = 0;
    live = n;
    n_sky = Array.length f.Stored_list.sky;
    n_happy = Array.length f.Stored_list.happy;
    order;
    mrr;
    basis_version = 0;
    basis = (fun () -> basis);
  }
