(** Extreme points of the downward-closed hull — the paper's [D_conv].

    [D_conv] is the set of points of [D] that are extreme points of
    [Conv(D)]; by Lemma 3 it is contained in [D_happy]. Deciding extremality
    in general dimension is done with one small LP per candidate
    ({!Kregret_lp.Regret_lp.in_convex_position}). Candidates should normally
    be pre-filtered to skyline points: a dominated point is never extreme,
    and the LP count drops from [|D|] to [|D_sky|]. *)

(** [extreme_points candidates] returns the members of [candidates] that are
    extreme points of the downward closure of the whole list. Duplicated
    points are never reported extreme (neither copy). A deterministic
    direction-sampling pre-pass (4096 directions) certifies unique
    maximizers as extreme before the per-point LP fallback runs — on
    realistic skylines most extreme points are settled by the pre-pass. *)
val extreme_points : Kregret_geom.Vector.t list -> Kregret_geom.Vector.t list
