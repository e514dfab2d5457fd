module Vector = Kregret_geom.Vector

let critical_ratio ~selected q =
  (match selected with
  | [] -> invalid_arg "Regret_lp.critical_ratio: empty selection"
  | p :: _ ->
      if Vector.dim p <> Vector.dim q then
        invalid_arg "Regret_lp.critical_ratio: dimension mismatch");
  let d = Vector.dim q in
  let m = Model.create () in
  let w = Array.init d (fun i -> Model.add_var m ~name:(Printf.sprintf "w%d" i)) in
  let t = Model.add_var m ~name:"t" in
  let dot_terms v = List.init d (fun i -> (v.(i), w.(i))) in
  Model.add_eq m (dot_terms q) 1.;
  List.iter (fun p -> Model.add_le m ((-1., t) :: dot_terms p) 0.) selected;
  match Model.minimize m [ (1., t) ] with
  | Model.Optimal { objective; values } ->
      let witness = Array.init d (fun i -> values w.(i)) in
      (objective, witness)
  | Model.Infeasible ->
      (* w . q = 1 is infeasible only if q = 0, excluded by the data model *)
      invalid_arg "Regret_lp.critical_ratio: infeasible (zero candidate?)"
  | Model.Unbounded ->
      invalid_arg "Regret_lp.critical_ratio: unbounded (empty selection?)"

let regret_ratio ~selected q =
  let cr, _ = critical_ratio ~selected q in
  Float.max 0. (1. -. cr)

let worst_candidate ~data ~selected () =
  List.fold_left
    (fun acc q ->
      let cr, _ = critical_ratio ~selected q in
      match acc with
      | Some (_, best) when best <= cr -> acc
      | _ -> Some (q, cr))
    None data

let max_regret_ratio ~data ~selected () =
  match worst_candidate ~data ~selected () with
  | None -> 0.
  | Some (_, cr) -> Float.max 0. (1. -. cr)

(* the least optimum [delta] that counts as a separation *)
let separation_eps = 1e-7

let separating_direction ~others p =
  let d = Vector.dim p in
  match others with
  | [] -> Some (Array.make d (1. /. float_of_int d))
  | _ -> (
      let m = Model.create () in
      let w =
        Array.init d (fun i -> Model.add_var m ~name:(Printf.sprintf "w%d" i))
      in
      let delta = Model.add_free_var m ~name:"delta" in
      let dot_terms v = List.init d (fun i -> (v.(i), w.(i))) in
      Model.add_eq m (List.init d (fun i -> (1., w.(i)))) 1.;
      List.iter
        (fun q ->
          let diff = Vector.sub p q in
          Model.add_ge m ((-1., delta) :: dot_terms diff) 0.)
        others;
      match Model.maximize m [ (1., delta) ] with
      | Model.Optimal { objective; values } when objective > separation_eps ->
          Some (Array.init d (fun i -> values w.(i)))
      | Model.Optimal _ | Model.Infeasible -> None
      | Model.Unbounded -> Some (Array.make d (1. /. float_of_int d)))

let in_convex_position ~others p = separating_direction ~others p <> None
