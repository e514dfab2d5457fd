module Vector = Kregret_geom.Vector
module Regret_lp = Kregret_lp.Regret_lp
module Pool = Kregret_parallel.Pool

type result = { order : int list; mrr : float; iterations : int; lp_calls : int }

(* slack of the stop test on [cr >= 1], as in {!Geo_greedy} *)
let eps = 1e-9

let run ~points ~k () =
  let n = Array.length points in
  if n = 0 then invalid_arg "Greedy_lp.run: empty candidate set";
  if k < 1 then invalid_arg "Greedy_lp.run: k must be positive";
  let d = Vector.dim points.(0) in
  let in_s = Array.make n false in
  let order = ref [] in
  let size = ref 0 in
  let lp_calls = ref 0 in
  let insert j =
    in_s.(j) <- true;
    order := j :: !order;
    incr size
  in
  List.iter
    (fun j -> if !size < k && not in_s.(j) then insert j)
    (Geo_greedy.(boundary_seeds) points d);
  let selected () =
    List.rev_map (fun j -> points.(j)) !order
  in
  let min_cr () =
    (* smallest critical ratio among the remaining candidates; the
       per-candidate LPs fan out across the domain pool (the simplex holds
       no shared state). Each chunk keeps its earliest minimum and the
       deterministic left-to-right reduce keeps the earlier chunk on ties,
       so the argmin — and hence the greedy trajectory — is identical to
       the sequential first-wins scan for every pool width. *)
    let sel = selected () in
    let calls, best =
      Pool.map_reduce ~lo:0 ~hi:n
        ~map:(fun a b ->
          let calls = ref 0 in
          let best = ref None in
          for j = a to b - 1 do
            if not in_s.(j) then begin
              incr calls;
              let cr, _ = Regret_lp.critical_ratio ~selected:sel points.(j) in
              match !best with
              | Some (_, bcr) when bcr <= cr -> ()
              | _ -> best := Some (j, cr)
            end
          done;
          (!calls, !best))
        ~reduce:(fun (acc_calls, acc) (calls, chunk) ->
          let merged =
            match (acc, chunk) with
            | None, c -> c
            | a, None -> a
            | Some (_, bcr), Some (_, cr) when cr < bcr -> chunk
            | a, _ -> a
          in
          (acc_calls + calls, merged))
        (0, None)
    in
    lp_calls := !lp_calls + calls;
    best
  in
  let iterations = ref 0 in
  let stop = ref false in
  let final_cr = ref None in
  while (not !stop) && !size < k do
    match min_cr () with
    | None -> stop := true
    | Some (_, cr) when cr >= 1. -. eps ->
        final_cr := Some cr;
        stop := true
    | Some (j, _) ->
        incr iterations;
        insert j
  done;
  let mrr =
    let cr =
      match !final_cr with
      | Some cr -> Some cr
      | None -> Option.map snd (min_cr ())
    in
    match cr with
    | None -> 0.
    | Some cr -> Float.max 0. (1. -. cr)
  in
  { order = List.rev !order; mrr; iterations = !iterations; lp_calls = !lp_calls }
