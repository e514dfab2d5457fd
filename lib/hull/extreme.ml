module Vector = Kregret_geom.Vector
module Regret_lp = Kregret_lp.Regret_lp

(* Cheap deterministic direction stream (splitmix-style) for the sampling
   pre-pass; kept local to avoid a dependency on the dataset library. *)
let direction_stream seed d =
  let state = ref (Int64.of_int (0x9E37 + seed)) in
  let next_word () =
    state := Int64.add !state 0x9E3779B97F4A7C15L;
    let z = !state in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
    Int64.logxor z (Int64.shift_right_logical z 31)
  in
  let next_float () =
    Int64.to_float (Int64.shift_right_logical (next_word ()) 11) *. 0x1.0p-53
  in
  fun () ->
    (* mix of dense and sparse non-negative directions *)
    let w = Array.make d 0. in
    if next_float () < 0.5 then
      for i = 0 to d - 1 do
        w.(i) <- -.log (Float.max 1e-12 (next_float ()))
      done
    else begin
      let support = 1 + int_of_float (next_float () *. float_of_int d) in
      for _ = 1 to support do
        w.(int_of_float (next_float () *. float_of_int d)) <- 0.05 +. next_float ()
      done
    end;
    if Vector.norm w = 0. then w.(0) <- 1.;
    w

(* Clarkson's output-sensitive convex-position algorithm, adapted to
   downward-closed hulls. A confirmed-extreme support set [E] grows as
   witnesses are discovered; every candidate is tested against [E] only, so
   each LP has at most [|D_conv|] constraints instead of [n]:

   - if the candidate lies in the downward closure of [E], it lies in the
     closure of the full set (E is a subset) — non-extreme, done;
   - otherwise the LP's witness direction [w] separates it from [E]; the
     maximizer of [w] over ALL candidates is extreme, joins [E], and the
     candidate is retried.

   Each retry grows [E], so the loop terminates after at most [|D_conv|]
   rounds per candidate and [n + |D_conv|^2] LPs overall (in practice far
   fewer: the sampling pre-pass seeds [E] with the easy vertices). *)
let extreme_points ?eps ?(samples = 4096) candidates =
  let arr = Array.of_list candidates in
  let n = Array.length arr in
  if n = 0 then []
  else begin
    let d = Vector.dim arr.(0) in
    let extreme = Array.make n false in
    let in_support = Array.make n false in
    let support = ref [] in
    let add_support i =
      if not in_support.(i) then begin
        in_support.(i) <- true;
        extreme.(i) <- true;
        support := arr.(i) :: !support
      end
    in
    let argmax_unique w =
      let best = ref 0 and best_v = ref (Vector.dot w arr.(0)) in
      let second = ref neg_infinity in
      for i = 1 to n - 1 do
        let v = Vector.dot w arr.(i) in
        if v > !best_v then begin
          second := !best_v;
          best := i;
          best_v := v
        end
        else if v > !second then second := v
      done;
      if !best_v > !second +. 1e-9 then Some !best else None
    in
    (* sampling pre-pass seeds the support set with easy vertices *)
    let next = direction_stream n d in
    for _ = 1 to samples do
      match argmax_unique (next ()) with
      | Some i -> add_support i
      | None -> ()
    done;
    for i = 0 to n - 1 do
      if not extreme.(i) then begin
        let decided = ref false in
        while not !decided do
          match
            Regret_lp.separating_direction ?eps ~others:!support arr.(i)
          with
          | None -> decided := true (* inside conv(E) => inside conv(all) *)
          | Some w -> (
              match argmax_unique w with
              | Some j when j = i ->
                  add_support i;
                  decided := true
              | Some j when not in_support.(j) -> add_support j
              | Some _ | None ->
                  (* the witness maximizer is already in E (or tied):
                     numerically marginal candidate — settle with the exact
                     full LP *)
                  let others = ref [] in
                  for j = 0 to n - 1 do
                    if j <> i then others := arr.(j) :: !others
                  done;
                  if Regret_lp.in_convex_position ?eps ~others:!others arr.(i)
                  then
                    add_support i;
                  decided := true)
        done
      end
    done;
    let keep = ref [] in
    for i = n - 1 downto 0 do
      if extreme.(i) then keep := arr.(i) :: !keep
    done;
    !keep
  end
