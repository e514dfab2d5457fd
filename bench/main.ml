(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section (see DESIGN.md section 6 for the experiment index).

   Usage:
     dune exec bench/main.exe                 # everything, default scales
     dune exec bench/main.exe -- fig9 fig10   # selected sections
     dune exec bench/main.exe -- --quick all  # smaller scales (CI-friendly)
     dune exec bench/main.exe -- --smoke scal # tiny scales (seconds; CI smoke)
     dune exec bench/main.exe -- --jobs 4 scal# pool width for parallel paths
     dune exec bench/main.exe -- --repeat 5 kernel  # median-of-5 timings
     dune exec bench/main.exe -- --metrics m.json scal  # obs snapshot on exit

   [--jobs N] sizes the domain pool (default: KREGRET_JOBS or the number of
   cores). [--repeat N] makes sections that time through
   Bench_util.time_median report the median of N runs after one discarded
   warmup. Sections additionally emit machine-readable BENCH_<id>.json files
   (per-row timings, jobs count, git rev) alongside the text tables — see
   Bench_util.emit_json.

   Section ids: table12 table3 fig7 fig8 fig9 fig10 fig11 fig12 fig12c fig13
   scal ablation micro kernel approx rrr update. *)

let sections : (string * (unit -> unit)) list =
  [
    ("table12", Exp_tables.table12);
    ("table3", Exp_tables.table3);
    ("fig7", Exp_real.fig7);
    ("fig8", Exp_real.fig8);
    ("fig9", Exp_real.fig9);
    ("fig10", Exp_real.fig10);
    ("fig11", Exp_real.fig11);
    ("fig12", Exp_synth.fig12_13ab);
    ("fig12c", Exp_synth.fig12_13c);
    ("fig13", Exp_synth.fig12_13d);
    ("scal", Exp_scal.run);
    ("ablation", Exp_ablation.run);
    ("ext", Exp_ext.run);
    ("substrate", Exp_substrate.run);
    ("micro", Exp_micro.run);
    ("kernel", Exp_kernel.run);
    ("approx", Exp_approx.run);
    ("rrr", Exp_rrr.run);
    ("update", Exp_update.run);
  ]

let aliases = [ ("tab1", "table12"); ("tab3", "table3"); ("ablat", "ablation") ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  (* --jobs N / --metrics PATH: handled before any section runs *)
  let metrics = ref None in
  let args =
    let rec strip acc = function
      | "--jobs" :: n :: rest -> (
          match int_of_string_opt n with
          | Some j when j >= 1 ->
              Kregret_parallel.Pool.set_jobs j;
              strip acc rest
          | _ ->
              Fmt.epr "--jobs expects a positive integer, got %S@." n;
              exit 2)
      | "--jobs" :: [] ->
          Fmt.epr "--jobs expects a positive integer@.";
          exit 2
      | "--metrics" :: path :: rest ->
          metrics := Some path;
          strip acc rest
      | "--metrics" :: [] ->
          Fmt.epr "--metrics expects a file path@.";
          exit 2
      | "--repeat" :: n :: rest -> (
          match int_of_string_opt n with
          | Some r when r >= 1 ->
              Bench_util.repeat := r;
              strip acc rest
          | _ ->
              Fmt.epr "--repeat expects a positive integer, got %S@." n;
              exit 2)
      | "--repeat" :: [] ->
          Fmt.epr "--repeat expects a positive integer@.";
          exit 2
      | a :: rest -> strip (a :: acc) rest
      | [] -> List.rev acc
    in
    strip [] args
  in
  (match !metrics with
  | None -> ()
  | Some _ ->
      Kregret_obs.Control.set_clock Unix.gettimeofday;
      Kregret_obs.Control.set_enabled true);
  let quick = List.mem "--quick" args in
  let smoke = List.mem "--smoke" args in
  let args =
    List.filter (fun a -> a <> "--quick" && a <> "--smoke" && a <> "all") args
  in
  if quick then begin
    Bench_util.real_scale := 2_000;
    Exp_synth.base_n := 2_000;
    Exp_scal.scal_n := 10_000;
    Exp_scal.scal_k := 50;
    Exp_approx.approx_ns := [ 2_000; 20_000 ];
    Exp_rrr.rrr_n := 3_000;
    Exp_update.update_n := 2_000;
    Exp_update.update_ops := 500
  end;
  if smoke then begin
    (* tiny scales: every section in seconds, for CI on jobs=1 and jobs=2 *)
    Bench_util.real_scale := 500;
    Exp_synth.base_n := 500;
    Exp_scal.scal_n := 2_000;
    Exp_scal.scal_k := 20;
    Exp_kernel.kernel_n := 2_000;
    Exp_kernel.kernel_k := 20;
    Exp_approx.approx_ns := [ 2_000 ];
    Exp_rrr.rrr_n := 800;
    Exp_rrr.rrr_k := 6;
    Exp_update.update_n := 500;
    Exp_update.update_ops := 120
  end;
  let wanted =
    match args with
    | [] -> List.map fst sections
    | names ->
        List.map
          (fun a -> match List.assoc_opt a aliases with Some x -> x | None -> a)
          names
  in
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun name ->
      match List.assoc_opt name sections with
      | Some f -> f ()
      | None ->
          Fmt.epr "unknown section %S; known: %s@." name
            (String.concat " " (List.map fst sections));
          exit 2)
    wanted;
  (match !metrics with
  | None -> ()
  | Some path ->
      Kregret_obs.Export.write ~path;
      Fmt.pr "  # wrote %s@." path);
  Fmt.pr "@.[bench completed in %.1fs]@." (Unix.gettimeofday () -. t0)
