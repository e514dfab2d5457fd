module Flat = Kregret_geom.Flat
module Pool = Kregret_parallel.Pool
module Obs = Kregret_obs

let c_reductions =
  Obs.Registry.counter "approx.reductions" ~help:"ε-kernel reductions run"

let g_kernel =
  Obs.Registry.gauge "approx.kernel_size"
    ~help:"rows retained by the last ε-kernel reduction"

let g_ratio =
  Obs.Registry.gauge "approx.reduction_ratio"
    ~help:"kernel rows / input rows of the last reduction"

let g_directions =
  Obs.Registry.gauge "approx.directions"
    ~help:"direction-net size of the last reduction"

let h_dir_seconds =
  Obs.Registry.histogram "approx.scan_seconds_per_direction"
    ~help:"extreme-point scan time per net direction (seconds)"

type net = {
  dirs : Flat.t;
  d : int;
  resolution : int;
  slack : float;
  eps : float;
}

(* the cap on net size: [net] raises rather than enumerate a larger net *)
let direction_cap = 2_000_000

let check_eps eps =
  if not (Float.is_finite eps) || eps <= 0. || eps > 1. then
    invalid_arg "Kernel: eps must be in (0, 1]"

(* The -1e-9 guard makes an eps that is exactly (d-1)/(2m) for some
   integer m map back to that m despite the float round trip, so
   resolutions nest exactly across an eps, eps/2 pair. *)
let resolution_for ~d ~eps =
  check_eps eps;
  if d < 1 then invalid_arg "Kernel: d must be >= 1";
  if d = 1 then 1
  else
    max 1
      (int_of_float
         (Float.ceil ((float_of_int (d - 1) /. (2. *. eps)) -. 1e-9)))

let slack_of ~d ~resolution =
  if d <= 1 then 0.
  else Float.min 1. (float_of_int (d - 1) /. (2. *. float_of_int resolution))

let slack_for ~d ~eps = slack_of ~d ~resolution:(resolution_for ~d ~eps)

let net_size ~d ~resolution =
  let m = float_of_int resolution in
  ((m +. 1.) ** float_of_int d) -. (m ** float_of_int d)

let net ~d ~eps =
  let m = resolution_for ~d ~eps in
  let count = net_size ~d ~resolution:m in
  if count > float_of_int direction_cap then
    invalid_arg
      (Printf.sprintf
         "Kernel.net: %.0f directions at d=%d eps=%g exceed the cap of %d"
         count d eps direction_cap);
  let dirs = Flat.create ~capacity:(int_of_float count) ~dim:d () in
  if d = 1 then Flat.push_row dirs [| 1. |]
  else begin
    let w = Array.make d 0. in
    let level = Array.make d 0 in
    for f = 0 to d - 1 do
      (* face f: coordinate f pinned to 1; a direction is emitted only on
         the face of its first unit coordinate, so no duplicates. *)
      Array.fill level 0 d 0;
      level.(f) <- m;
      let free = Array.init (d - 1) (fun i -> if i < f then i else i + 1) in
      let rec emit () =
        let dup = ref false in
        for j = 0 to f - 1 do
          if level.(j) = m then dup := true
        done;
        if not !dup then begin
          for j = 0 to d - 1 do
            w.(j) <- float_of_int level.(j) /. float_of_int m
          done;
          Flat.push_row dirs w
        end;
        let rec bump i =
          if i < 0 then false
          else
            let c = free.(i) in
            if level.(c) = m then begin
              level.(c) <- 0;
              bump (i - 1)
            end
            else begin
              level.(c) <- level.(c) + 1;
              true
            end
        in
        if bump (d - 2) then emit ()
      in
      emit ()
    done
  end;
  { dirs; d; resolution = m; slack = slack_of ~d ~resolution:m; eps }

type result = {
  ids : int array;
  winners : int array;
  n_input : int;
  directions : int;
  resolution : int;
  slack : float;
  eps : float;
  scan_seconds : float;
}

let reduce ~eps points =
  let n = Array.length points in
  if n = 0 then invalid_arg "Kernel.reduce: empty input";
  let d = Array.length points.(0) in
  let nt = net ~d ~eps in
  let nd = Flat.rows nt.dirs in
  let flat = Flat.of_rows ~dim:d points in
  let out_row = Array.make nd (-1) in
  let out_val = Array.make nd Float.nan in
  let targets = Array.init nd (fun j -> j) in
  Obs.Counter.incr c_reductions;
  let t0 = Unix.gettimeofday () in
  (* each direction streams all n rows: ~0.5 ns per coordinate *)
  let cost = (0.5 *. float_of_int (n * d)) +. 64. in
  ignore
    (Obs.Span.with_ "approx.scan" (fun () ->
         Pool.map_reduce ~cost ~lo:0 ~hi:nd
           ~map:(fun a b ->
             let c0 = Unix.gettimeofday () in
             let tiles =
               Flat.champions ~vertices:flat ~cands:nt.dirs targets ~tlo:a
                 ~thi:b ~out_row ~out_val
             in
             Obs.Histogram.observe h_dir_seconds
               ((Unix.gettimeofday () -. c0) /. float_of_int (b - a));
             tiles)
           ~reduce:( + ) 0));
  let scan_seconds = Unix.gettimeofday () -. t0 in
  let winners = Array.copy out_row in
  let sorted = Array.copy winners in
  Array.sort Int.compare sorted;
  let kept = ref 0 in
  Array.iteri
    (fun i v -> if i = 0 || v <> sorted.(i - 1) then incr kept)
    sorted;
  let kernel = Array.make !kept 0 in
  let j = ref 0 in
  Array.iteri
    (fun i v ->
      if i = 0 || v <> sorted.(i - 1) then begin
        kernel.(!j) <- v;
        incr j
      end)
    sorted;
  Obs.Gauge.set_int g_kernel !kept;
  Obs.Gauge.set g_ratio (float_of_int !kept /. float_of_int n);
  Obs.Gauge.set_int g_directions nd;
  {
    ids = kernel;
    winners;
    n_input = n;
    directions = nd;
    resolution = nt.resolution;
    slack = nt.slack;
    eps;
    scan_seconds;
  }

let select r points = Array.map (fun id -> points.(id)) r.ids
