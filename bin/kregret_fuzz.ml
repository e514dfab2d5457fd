(* kregret_fuzz — deterministic differential fuzzing driver.

   Generates a seeded stream of random k-regret instances (uniform /
   correlated / anti-correlated, d in 2..7, n in 1..400, with degenerate
   mutations) and cross-checks every independent evaluator in the
   repository on each one (see Kregret_check.Oracle). On failure the
   instance is shrunk to a minimal repro and persisted to the corpus
   directory, where test/test_corpus.ml replays it as a tier-1 regression
   test forever after.

   Exit status: 0 = all instances passed, 1 = failures found (repros
   written), 124 = bad usage. *)

open Cmdliner
module Fuzzer = Kregret_check.Fuzzer
module Oracle = Kregret_check.Oracle
module Obs = Kregret_obs

let replay_corpus corpus =
  match Kregret_check.Corpus.list ~dir:corpus with
  | [] ->
      Fmt.pr "no repros in %s@." corpus;
      0
  | bases ->
      let failed = ref 0 in
      List.iter
        (fun base ->
          match Fuzzer.replay ~dir:corpus base with
          | [] -> Fmt.pr "%-24s PASS@." base
          | fs ->
              incr failed;
              Fmt.pr "%-24s FAIL@." base;
              List.iter (fun f -> Fmt.pr "  %a@." Oracle.pp_failure f) fs)
        bases;
      if !failed = 0 then 0 else 1

let with_obs (metrics, stats) f =
  if metrics <> None || stats then begin
    Obs.Control.set_clock Unix.gettimeofday;
    Obs.Control.set_enabled true
  end;
  Fun.protect
    ~finally:(fun () ->
      (match metrics with
      | Some path -> Obs.Export.write ~path
      | None -> ());
      if stats then Obs.Export.pp_table Format.err_formatter ())
    f

let run replay instances seed corpus no_persist samples jobs_hi suite
    shrink_attempts quiet obs =
  with_obs obs @@ fun () ->
  if replay then replay_corpus corpus
  else begin
  if instances < 0 then begin
    Fmt.epr "kregret_fuzz: --instances must be non-negative@.";
    exit 124
  end;
  let config =
    {
      Fuzzer.instances;
      seed;
      oracle = { Oracle.samples; jobs_hi; suite };
      shrink_attempts;
      corpus_dir = (if no_persist then None else Some corpus);
      log = (if quiet then None else Some prerr_endline);
    }
  in
  let summary = Obs.Span.with_ "fuzz.campaign" (fun () -> Fuzzer.run config) in
  Fmt.pr "%a" Fuzzer.pp_summary summary;
  if summary.Fuzzer.failed = [] then 0 else 1
  end

let instances_arg =
  Arg.(
    value & opt int 200
    & info [ "instances" ] ~docv:"N" ~doc:"Number of random instances to check.")

let seed_arg =
  Arg.(
    value & opt int 42
    & info [ "seed" ] ~docv:"SEED"
        ~doc:
          "Campaign master seed. The instance stream is a pure function of \
           the seed: same seed, same instances, on any machine and at any \
           pool width.")

let corpus_arg =
  Arg.(
    value & opt string "test/corpus"
    & info [ "corpus" ] ~docv:"DIR"
        ~doc:
          "Directory where shrunk repros are persisted (CSV + JSON per \
           failure). Every file pair placed here is replayed by the test \
           suite as a regression test.")

let no_persist_arg =
  Arg.(
    value & flag
    & info [ "no-persist" ] ~doc:"Report failures without writing repro files.")

let samples_arg =
  Arg.(
    value & opt int Oracle.default.Oracle.samples
    & info [ "samples" ] ~docv:"S"
        ~doc:"Monte-Carlo budget for the sampled-mrr lower-bound check.")

(* validated at parse time: a bad --jobs is a usage error (exit 124), not a
   mid-campaign failure *)
let jobs_conv =
  let parse s =
    match int_of_string_opt (String.trim s) with
    | Some j when j >= 1 -> Ok j
    | Some j -> Error (`Msg (Printf.sprintf "JOBS must be >= 1 (got %d)" j))
    | None -> Error (`Msg (Printf.sprintf "JOBS must be an integer, got %S" s))
  in
  Arg.conv ~docv:"JOBS" (parse, Format.pp_print_int)

let jobs_arg =
  Arg.(
    value & opt jobs_conv Oracle.default.Oracle.jobs_hi
    & info [ "jobs"; "j" ] ~docv:"JOBS"
        ~doc:
          "Second pool width for the jobs-invariance check (every instance \
           is run at width 1 and at width JOBS; results must be \
           bit-identical). 1 disables the comparison.")

let check_arg =
  Arg.(
    value
    & opt
        (enum
           [
             ("all", Oracle.All);
             ("dynamic", Oracle.Dynamic_only);
             ("approx", Oracle.Approx_only);
             ("rrr", Oracle.Rrr_only);
           ])
        Oracle.All
    & info [ "check" ] ~docv:"SUITE"
        ~doc:
          "Which oracle suite to run per instance: $(b,all) (every \
           differential check, including the dynamic-maintenance, \
           approximation and rank-regret oracles), $(b,dynamic) (only the \
           fuzzed insert/delete/query interleavings against the \
           rebuild-from-scratch pipeline), $(b,approx) (only the \
           ε-kernel checks: kernel structure, certified regret bound, \
           ε-monotonicity, pool-width bit-identity), or \
           $(b,rrr) (only the rank-regret checks: brute-force d=2 \
           arrangement agreement, witness/net rank re-evaluation, sampled \
           upper-bound probes, pool-width and wire bit-identity).")

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"PATH"
        ~doc:
          "Enable observability and write a kregret-obs/v1 JSON metrics \
           snapshot to $(docv) on exit.")

let stats_arg =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:
          "Enable observability and print a human-readable metrics table to \
           stderr on exit.")

let obs_term = Term.(const (fun m s -> (m, s)) $ metrics_arg $ stats_arg)

let shrink_arg =
  Arg.(
    value & opt int 400
    & info [ "shrink-attempts" ] ~docv:"A"
        ~doc:"Oracle-call budget for minimizing each failing instance.")

let quiet_arg =
  Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"Suppress progress logging.")

let replay_arg =
  Arg.(
    value & flag
    & info [ "replay" ]
        ~doc:
          "Instead of fuzzing, replay every repro in the corpus directory \
           and report pass/fail (exit 1 on any failure). The test suite \
           does the same thing as a tier-1 regression test.")

let cmd =
  let doc = "differential fuzzing of the k-regret implementations" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Cross-checks GeoGreedy against the LP-based Greedy baseline, the \
         geometric/LP/Monte-Carlo mrr evaluators against each other, the \
         Lemma-3 candidate-tier inclusions, StoredList prefix consistency, \
         Optimal2d optimality at d=2, mrr monotonicity in k, and pool-width \
         invariance, on a deterministic stream of random instances. Failing \
         instances are shrunk (drop points, drop dimensions, reduce k, snap \
         coordinates) to minimal repros.";
      `S Manpage.s_examples;
      `Pre "  kregret_fuzz --instances 500 --seed 42\n  kregret_fuzz --instances 200 --jobs 2 --corpus test/corpus";
    ]
  in
  Cmd.v
    (Cmd.info "kregret_fuzz" ~version:"1.0.0" ~doc ~man)
    Term.(
      const run $ replay_arg $ instances_arg $ seed_arg $ corpus_arg
      $ no_persist_arg $ samples_arg $ jobs_arg $ check_arg $ shrink_arg
      $ quiet_arg $ obs_term)

let () = exit (Cmd.eval' cmd)
