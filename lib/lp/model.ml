type var = int

type var_info = { vname : string; pos_col : int; neg_col : int (* -1 if non-negative *) }

type t = {
  mutable vars : var_info list; (* reversed *)
  mutable nvars : int;
  mutable ncols : int;
  mutable constraints : (((float * var) list) * Simplex.relation * float) list;
}

type outcome =
  | Optimal of { objective : float; values : var -> float }
  | Infeasible
  | Unbounded

let create () = { vars = []; nvars = 0; ncols = 0; constraints = [] }

let add_var t ~name =
  let v = t.nvars in
  t.vars <- { vname = name; pos_col = t.ncols; neg_col = -1 } :: t.vars;
  t.nvars <- t.nvars + 1;
  t.ncols <- t.ncols + 1;
  v

let add_free_var t ~name =
  let v = t.nvars in
  t.vars <- { vname = name; pos_col = t.ncols; neg_col = t.ncols + 1 } :: t.vars;
  t.nvars <- t.nvars + 1;
  t.ncols <- t.ncols + 2;
  v

let info t v = List.nth t.vars (t.nvars - 1 - v)
let name t v = (info t v).vname

let add_constr t terms rel rhs = t.constraints <- (terms, rel, rhs) :: t.constraints
let add_le t terms rhs = add_constr t terms Simplex.Le rhs
let add_ge t terms rhs = add_constr t terms Simplex.Ge rhs
let add_eq t terms rhs = add_constr t terms Simplex.Eq rhs

let row_of_terms t terms =
  let row = Array.make t.ncols 0. in
  List.iter
    (fun (c, v) ->
      let i = info t v in
      row.(i.pos_col) <- row.(i.pos_col) +. c;
      if i.neg_col >= 0 then row.(i.neg_col) <- row.(i.neg_col) -. c)
    terms;
  row

let solve t objective ~direction =
  let constraints =
    List.rev_map
      (fun (terms, relation, rhs) ->
        { Simplex.coeffs = row_of_terms t terms; relation; rhs })
      t.constraints
  in
  let obj = row_of_terms t objective in
  let run =
    match direction with
    | `Min -> Simplex.minimize ~nvars:t.ncols ~objective:obj
    | `Max -> Simplex.maximize ~nvars:t.ncols ~objective:obj
  in
  match run constraints with
  | Simplex.Infeasible -> Infeasible
  | Simplex.Unbounded -> Unbounded
  | Simplex.Optimal { objective; solution } ->
      let values v =
        let i = info t v in
        if i.neg_col >= 0 then solution.(i.pos_col) -. solution.(i.neg_col)
        else solution.(i.pos_col)
      in
      Optimal { objective; values }

let minimize t objective = solve t objective ~direction:`Min
let maximize t objective = solve t objective ~direction:`Max
