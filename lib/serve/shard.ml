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
    ~help:"per-shard pipeline runs inside shard-tier builds"

type local = {
  l_n : int;
  l_sky : int array;
      (* original row ids of the local scatter surface: the local skyline,
         or the local ε-kernel in approx mode *)
  l_happy : int array;  (* original row ids of the local happy set *)
  l_stored : Stored_list.t option;  (* over l_happy's vectors *)
}

type t = {
  s_n : int;
  s_locals : local array;
  s_n_sky : int;
  s_ids : int array;  (* coordinator list, original row ids *)
  s_mrr : float array;  (* mrr of each coordinator prefix *)
  s_n_happy : int;
  s_approx : float;  (* requested ε; 0. = exact *)
  s_kernel : int;  (* global kernel size; 0 = exact *)
  s_points : Vector.t array;  (* the full normalized input (shared, not copied) *)
  s_sky_ids : int array;
      (* merged skyline, original row ids — bit-identical to the
         monolithic skyline in exact mode (the shard-merge invariant),
         the kernel-restricted skyline in approx mode. Sibling query
         engines (rank-regret) take these as their candidate set: the
         skyline is rank-complete, the happy funnel is not. *)
  s_happy_ids : int array;
      (* merged happy set, original row ids — same invariant, one
         funnel stage further down. *)
}

(* one shard's slice of the pipeline; [off] maps chunk rows back to
   original ids. In approx mode the scatter surface is the chunk's
   ε-kernel instead of its skyline, and the local serving pipeline runs
   on the kernel rows. *)
let build_local ?eps ?max_length ?approx ~off chunk =
  Obs.Counter.incr c_local;
  match approx with
  | None ->
      let sky_idx = Skyline.sfs chunk in
      let sky_vecs = Array.map (fun i -> chunk.(i)) sky_idx in
      let hap_idx = Happy.happy_points ?eps sky_vecs in
      let hap_vecs = Array.map (fun i -> sky_vecs.(i)) hap_idx in
      {
        l_n = Array.length chunk;
        l_sky = Array.map (fun i -> off + i) sky_idx;
        l_happy = Array.map (fun i -> off + sky_idx.(i)) hap_idx;
        l_stored =
          (if Array.length hap_vecs = 0 then None
           else Some (Stored_list.preprocess ?eps ?max_length hap_vecs));
      }
  | Some a ->
      let red = Kernel.reduce ~eps:a chunk in
      let ker_idx = red.Kernel.ids in
      let ker_vecs = Array.map (fun i -> chunk.(i)) ker_idx in
      let sky_idx = Skyline.sfs ker_vecs in
      let sky_vecs = Array.map (fun i -> ker_vecs.(i)) sky_idx in
      let hap_idx = Happy.happy_points ?eps sky_vecs in
      let hap_vecs = Array.map (fun i -> sky_vecs.(i)) hap_idx in
      {
        l_n = Array.length chunk;
        l_sky = Array.map (fun i -> off + i) ker_idx;
        l_happy = Array.map (fun i -> off + ker_idx.(sky_idx.(i))) hap_idx;
        l_stored =
          (if Array.length hap_vecs = 0 then None
           else Some (Stored_list.preprocess ?eps ?max_length hap_vecs));
      }

let create ?eps ?max_length ?approx ~shards points =
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
  let locals =
    Array.init shards (fun c ->
        let off = starts.(c) in
        build_local ?eps ?max_length ?approx ~off
          (Array.sub points off (starts.(c + 1) - off)))
  in
  (* gather: the concatenated local scatter surfaces, in shard (= row)
     order — ascending original ids, since shards are contiguous and
     each local surface is sorted *)
  let union_ids = Array.concat (Array.to_list (Array.map (fun l -> l.l_sky) locals)) in
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
  let hap_idx = Happy.happy_points ?eps sky_vecs in
  let hap_ids = Array.map (fun i -> gather_ids.(sky_idx.(i))) hap_idx in
  let hap_vecs = Array.map (fun i -> sky_vecs.(i)) hap_idx in
  let ids, mrr =
    if Array.length hap_vecs = 0 then ([||], [||])
    else begin
      let stored = Stored_list.preprocess ?eps ?max_length hap_vecs in
      let len = Stored_list.length stored in
      let order = Array.of_list (Stored_list.order stored) in
      ( Array.map (fun i -> hap_ids.(i)) order,
        Array.init len (fun i -> Stored_list.mrr_at stored ~k:(i + 1)) )
    end
  in
  Obs.Counter.incr c_builds;
  {
    s_n = n;
    s_locals = locals;
    s_n_sky = Array.length sky_idx;
    s_ids = ids;
    s_mrr = mrr;
    s_n_happy = Array.length hap_ids;
    s_approx = (match approx with None -> 0. | Some a -> a);
    s_kernel = kernel_size;
    s_points = points;
    s_sky_ids = sky_ids;
    s_happy_ids = hap_ids;
  }

let shards t = Array.length t.s_locals
let n t = t.s_n
let n_sky t = t.s_n_sky
let n_happy t = t.s_n_happy
let stored_length t = Array.length t.s_ids
let approx t = t.s_approx
let kernel_size t = t.s_kernel

let query t ~k =
  if k < 1 then invalid_arg "Shard.query: k must be positive";
  let len = Array.length t.s_ids in
  if len = 0 then ([], 0.)
  else
    let take = min k len in
    (Array.to_list (Array.sub t.s_ids 0 take), t.s_mrr.(take - 1))

let mrr_at t ~k =
  if k < 1 then invalid_arg "Shard.mrr_at: k must be positive";
  let len = Array.length t.s_ids in
  if len = 0 then 0. else t.s_mrr.(min k len - 1)

let happy_ids t = Array.copy t.s_happy_ids

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

let local_sizes t =
  Array.map
    (fun l -> (l.l_n, Array.length l.l_sky, Array.length l.l_happy))
    t.s_locals

let local_query t ~shard ~k =
  if shard < 0 || shard >= Array.length t.s_locals then
    invalid_arg "Shard.local_query: shard out of range";
  if k < 1 then invalid_arg "Shard.local_query: k must be positive";
  let l = t.s_locals.(shard) in
  match l.l_stored with
  | None -> []
  | Some s -> List.map (fun i -> l.l_happy.(i)) (Stored_list.query s ~k)
