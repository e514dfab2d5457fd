module Obs = Kregret_obs

(* Observability: each solve's pivot trail is a pure function of the LP
   instance (Dantzig then Bland are both deterministic rules), so totals are
   identical however calls are distributed across domains. *)
let c_solves = Obs.Registry.counter "simplex.solves" ~help:"LPs solved"
let c_pivots = Obs.Registry.counter "simplex.pivots" ~help:"pivot operations"

let c_bland =
  Obs.Registry.counter "simplex.bland_activations"
    ~help:"iteration runs that exhausted the Dantzig budget and fell back to \
           Bland's rule"

let c_infeasible =
  Obs.Registry.counter "simplex.phase1_infeasibilities"
    ~help:"solves whose phase-1 optimum stayed positive (infeasible LPs)"

type relation = Le | Ge | Eq
type constr = { coeffs : float array; relation : relation; rhs : float }

type outcome =
  | Optimal of { objective : float; solution : float array }
  | Infeasible
  | Unbounded

(* The tableau holds the constraint rows; the reduced-cost row is kept
   separately and rebuilt between phases. [basis.(i)] is the column basic in
   row [i]. Column layout: original vars, then slack/surplus, then
   artificials. *)
type tableau = {
  rows : float array array; (* m rows, each of width ncols + 1 (rhs last) *)
  basis : int array;
  ncols : int;
  nvars : int;
  first_artificial : int; (* columns >= this are artificial *)
}

let rhs_col t = t.ncols

let build ~nvars constraints =
  List.iter
    (fun c ->
      if Array.length c.coeffs <> nvars then
        invalid_arg "Simplex: constraint width mismatch")
    constraints;
  (* flip rows so every rhs is non-negative *)
  let constraints =
    List.map
      (fun c ->
        if c.rhs < 0. then
          {
            coeffs = Array.map (fun x -> -.x) c.coeffs;
            rhs = -.c.rhs;
            relation =
              (match c.relation with Le -> Ge | Ge -> Le | Eq -> Eq);
          }
        else c)
      constraints
  in
  let m = List.length constraints in
  let n_slack =
    List.fold_left
      (fun acc c -> match c.relation with Le | Ge -> acc + 1 | Eq -> acc)
      0 constraints
  in
  let n_artificial =
    List.fold_left
      (fun acc c -> match c.relation with Ge | Eq -> acc + 1 | Le -> acc)
      0 constraints
  in
  let ncols = nvars + n_slack + n_artificial in
  let rows = Array.init m (fun _ -> Array.make (ncols + 1) 0.) in
  let basis = Array.make m (-1) in
  let slack = ref nvars in
  let artificial = ref (nvars + n_slack) in
  List.iteri
    (fun i c ->
      Array.blit c.coeffs 0 rows.(i) 0 nvars;
      rows.(i).(ncols) <- c.rhs;
      (match c.relation with
      | Le ->
          rows.(i).(!slack) <- 1.;
          basis.(i) <- !slack;
          incr slack
      | Ge ->
          rows.(i).(!slack) <- -1.;
          incr slack;
          rows.(i).(!artificial) <- 1.;
          basis.(i) <- !artificial;
          incr artificial
      | Eq ->
          rows.(i).(!artificial) <- 1.;
          basis.(i) <- !artificial;
          incr artificial))
    constraints;
  { rows; basis; ncols; nvars; first_artificial = nvars + n_slack }

(* Reduced-cost row for cost vector [cost] (length ncols) given the current
   basis: cbar_j = c_j - sum_i c_B(i) * T_ij; last entry is the negated
   objective value. *)
let reduced_costs t cost =
  let m = Array.length t.rows in
  let row = Array.make (t.ncols + 1) 0. in
  Array.blit cost 0 row 0 t.ncols;
  for i = 0 to m - 1 do
    let cb = cost.(t.basis.(i)) in
    if cb <> 0. then begin
      let r = t.rows.(i) in
      for j = 0 to t.ncols do
        row.(j) <- row.(j) -. (cb *. r.(j))
      done
    end
  done;
  row

let pivot t obj_row ~row ~col =
  Obs.Counter.incr c_pivots;
  let pr = t.rows.(row) in
  let piv = pr.(col) in
  for j = 0 to t.ncols do
    pr.(j) <- pr.(j) /. piv
  done;
  let eliminate r =
    let factor = r.(col) in
    if factor <> 0. then
      for j = 0 to t.ncols do
        r.(j) <- r.(j) -. (factor *. pr.(j))
      done
  in
  Array.iteri (fun i r -> if i <> row then eliminate r) t.rows;
  eliminate obj_row;
  t.basis.(row) <- col

(* the pivot/zero tolerance *)
let eps = 1e-9

(* Run simplex iterations on [t] minimizing the objective encoded in
   [obj_row]. [allowed j] filters entering columns (used to block artificials
   in phase 2). Returns [`Optimal] or [`Unbounded]. *)
let iterate t obj_row ~allowed =
  let m = Array.length t.rows in
  let max_dantzig = 50 * (m + t.ncols) in
  let iter = ref 0 in
  let result = ref None in
  while !result = None do
    incr iter;
    let bland = !iter > max_dantzig in
    if !iter = max_dantzig + 1 then Obs.Counter.incr c_bland;
    (* entering column *)
    let enter = ref (-1) in
    if bland then begin
      (* Bland: smallest eligible index *)
      let j = ref 0 in
      while !enter = -1 && !j < t.ncols do
        if allowed !j && obj_row.(!j) < -.eps then enter := !j;
        incr j
      done
    end
    else begin
      (* Dantzig: most negative reduced cost *)
      let best = ref (-.eps) in
      for j = 0 to t.ncols - 1 do
        if allowed j && obj_row.(j) < !best then begin
          best := obj_row.(j);
          enter := j
        end
      done
    end;
    if !enter = -1 then result := Some `Optimal
    else begin
      let col = !enter in
      (* ratio test; Bland tie-break on basis variable index *)
      let leave = ref (-1) in
      let best_ratio = ref infinity in
      for i = 0 to m - 1 do
        let a = t.rows.(i).(col) in
        if a > eps then begin
          let ratio = t.rows.(i).(rhs_col t) /. a in
          if
            ratio < !best_ratio -. eps
            || (ratio < !best_ratio +. eps
               && !leave >= 0
               && t.basis.(i) < t.basis.(!leave))
          then begin
            best_ratio := ratio;
            leave := i
          end
        end
      done;
      if !leave = -1 then result := Some `Unbounded
      else pivot t obj_row ~row:!leave ~col
    end
  done;
  match !result with Some r -> r | None -> assert false

let extract_solution t =
  let x = Array.make t.nvars 0. in
  Array.iteri
    (fun i b -> if b < t.nvars then x.(b) <- t.rows.(i).(rhs_col t))
    t.basis;
  x

let minimize ~nvars ~objective constraints =
  if Array.length objective <> nvars then
    invalid_arg "Simplex.minimize: objective width mismatch";
  Obs.Counter.incr c_solves;
  let t = build ~nvars constraints in
  let m = Array.length t.rows in
  (* Phase 1: minimize the sum of artificial variables. *)
  let need_phase1 = t.first_artificial < t.ncols in
  let feasible =
    if not need_phase1 then true
    else begin
      let cost1 = Array.make t.ncols 0. in
      for j = t.first_artificial to t.ncols - 1 do
        cost1.(j) <- 1.
      done;
      let obj_row = reduced_costs t cost1 in
      (* the phase-1 objective is bounded below by 0, so `Unbounded can only
         arise from accumulated round-off in a degenerate tableau; the
         phase-1 value test below still decides feasibility correctly *)
      (match iterate t obj_row ~allowed:(fun _ -> true) with
      | `Unbounded | `Optimal -> ());
      let phase1_value = -.obj_row.(rhs_col t) in
      if phase1_value > eps *. 10. then false
      else begin
        (* Drive any basic artificial out of the basis when possible. *)
        for i = 0 to m - 1 do
          if t.basis.(i) >= t.first_artificial then begin
            let j = ref 0 in
            let found = ref (-1) in
            while !found = -1 && !j < t.first_artificial do
              if abs_float t.rows.(i).(!j) > eps then found := !j;
              incr j
            done;
            match !found with
            | -1 -> () (* redundant row; the artificial stays basic at 0 *)
            | col -> pivot t obj_row ~row:i ~col
          end
        done;
        true
      end
    end
  in
  if not feasible then begin
    Obs.Counter.incr c_infeasible;
    Infeasible
  end
  else begin
    let cost2 = Array.make t.ncols 0. in
    Array.blit objective 0 cost2 0 nvars;
    let obj_row = reduced_costs t cost2 in
    let allowed j = j < t.first_artificial in
    match iterate t obj_row ~allowed with
    | `Unbounded -> Unbounded
    | `Optimal ->
        Optimal
          { objective = -.obj_row.(rhs_col t); solution = extract_solution t }
  end

let maximize ~nvars ~objective constraints =
  let neg = Array.map (fun x -> -.x) objective in
  match minimize ~nvars ~objective:neg constraints with
  | Optimal { objective; solution } ->
      Optimal { objective = -.objective; solution }
  | (Infeasible | Unbounded) as r -> r
