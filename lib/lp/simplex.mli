(** Dense two-phase primal simplex.

    This is the "constrained programming" engine the paper's baseline
    [Greedy] (Nanongkai et al., VLDB 2010) spends its time in: one linear
    program per candidate point per greedy iteration. The problems solved
    here are small (d+1 variables, |S|+1 rows) but numerous, so the solver is
    a straightforward dense tableau implementation with

    - automatic standardization (slack/surplus/artificial variables),
    - a phase-1 feasibility pass,
    - Dantzig pricing with a Bland's-rule fallback for anti-cycling,
    - explicit infeasible / unbounded outcomes.

    All decision variables are non-negative; free variables are handled one
    level up (see {!Model}) by sign splitting. *)

type relation = Le | Ge | Eq

type constr = {
  coeffs : float array;  (** dense row of length [nvars] *)
  relation : relation;
  rhs : float;
}

type outcome =
  | Optimal of { objective : float; solution : float array }
      (** minimal objective value and an optimal assignment of the original
          variables *)
  | Infeasible
  | Unbounded

(** [minimize ~nvars ~objective constraints] solves

    {v min objective . x   s.t.  constraints,  x >= 0 v}

    Raises [Invalid_argument] when a row's width disagrees with [nvars].
    The pivot/zero tolerance is [1e-9]. *)
val minimize : nvars:int -> objective:float array -> constr list -> outcome

(** [maximize] is [minimize] on the negated objective, with the objective
    value reported for the original (maximization) direction. *)
val maximize : nvars:int -> objective:float array -> constr list -> outcome
