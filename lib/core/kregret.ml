(** k-regret queries — the geometry approach of Peng & Wong (ICDE 2014).

    A k-regret query returns [k] tuples such that a user with any (unknown)
    linear utility function finds, among them, a tuple within a small factor
    of their favorite in the whole database; the worst-case factor is the
    {e maximum regret ratio}. Entry points:

    - {!Query} — one-call façade: normalize, reduce to happy points, run an
      algorithm, report the selection and its regret.
    - {!Geo_greedy} — the paper's Algorithm 1 (incremental geometric index).
    - {!Stored_list} — materialize once, answer any [k] in O(k); its
      [funnel] is the one skyline → happy → StoredList composition.
    - {!Dynamic} — incremental inserts/deletes, bit-identical to a rebuild.
    - {!Snapshot} — the read state a ready dataset publishes, fixed once made.
    - {!Greedy_lp} / {!Cube} — the VLDB 2010 baselines.
    - {!Optimal2d} — exact optimum in two dimensions (DP).
    - {!Mrr} — evaluate the maximum regret ratio of any selection.
    - {!Average_regret}, {!Interactive} — the paper's future-work directions.
    - {!Validation} — end-to-end consistency checks, built on the
      {!Invariants} checkers shared with the differential fuzzer
      ([Kregret_check]).
    - {!Toy} — the paper's worked car example.

    Candidate-set preprocessing (skyline, happy points) lives in the
    companion libraries [Kregret_skyline] and [Kregret_happy]; geometry and
    LP substrates in [Kregret_hull], [Kregret_lp], [Kregret_geom]; data
    generation in [Kregret_dataset]. See DESIGN.md for the architecture and
    EXPERIMENTS.md for the reproduction record. *)

module Mrr = Mrr
module Geo_greedy = Geo_greedy
module Greedy_lp = Greedy_lp
module Stored_list = Stored_list
module Dynamic = Dynamic
module Snapshot = Snapshot
module Cube = Cube
module Optimal2d = Optimal2d
module Average_regret = Average_regret
module Interactive = Interactive
module Query = Query
module Invariants = Invariants
module Validation = Validation
module Toy = Toy
