(* Property tests draw from QCheck's global RNG; pin it for reproducible CI
   runs unless the caller explicitly overrides the seed. *)
let () =
  if Sys.getenv_opt "QCHECK_SEED" = None then Unix.putenv "QCHECK_SEED" "20140331"

let () =
  Alcotest.run "kregret"
    [
      ("vector", Test_vector.suite);
      ("matrix", Test_matrix.suite);
      ("flat", Test_flat.suite);
      ("simplex", Test_simplex.suite);
      ("regret-lp", Test_regret_lp.suite);
      ("hull", Test_hull.suite);
      ("dd-stress", Test_dd_stress.suite);
      ("mrr", Test_mrr.suite);
      ("dataset", Test_dataset.suite);
      ("skyline", Test_skyline.suite);
      ("rtree-bbs", Test_rtree.suite);
      ("happy", Test_happy.suite);
      ("regret", Test_regret.suite);
      ("extensions", Test_extensions.suite);
      ("optimality", Test_optimality.suite);
      ("edge-cases", Test_edge_cases.suite);
      ("stats-validation", Test_stats.suite);
      ("optimal2d", Test_optimal2d.suite);
      ("parallel", Test_parallel.suite);
      ("stored-list", Test_stored_list.suite);
      ("validation", Test_validation.suite);
      ("average-regret", Test_average_regret.suite);
      ("csv-io", Test_csv_io.suite);
      ("dynamic", Test_dynamic.suite);
      ("check", Test_check.suite);
      ("approx", Test_approx.suite);
      ("obs", Test_obs.suite);
      ("lru", Test_lru.suite);
      ("serve", Test_serve.suite);
      ("rrr", Test_rrr.suite);
      ("corpus", Test_corpus.suite);
    ]
