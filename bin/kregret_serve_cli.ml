(* kregret_serve — StoredList-backed k-regret query server over any mix of
   Unix-domain and TCP stream sockets, speaking the line-oriented JSON
   protocol [kregret-serve/v1] (see lib/serve/protocol.mli).

   Server mode (default): bind every --listen endpoint (or --socket),
   optionally --preload datasets, serve until a [shutdown] request (or
   SIGINT/SIGTERM) arrives. One event-driven IO thread multiplexes every
   listener and connection; --workers threads run the request handlers.
   The server records its Kregret_obs metrics from the start: the [stats]
   verb replies with the live snapshot, and --metrics PATH writes it at
   exit.

   Client mode (--client): connect to --connect (or --socket) and run the
   commands given as positional arguments (shorthand verbs or raw JSON
   frames; reads stdin when none are given), printing one raw response
   line per request.

   Exit status: 0 = success, 1 = a request failed / server error,
   124 = bad usage. *)

open Cmdliner
module Serve = Kregret_serve
module Pool = Kregret_parallel.Pool
module Obs = Kregret_obs

(* A server always records: its [stats] verb replies with the live
   snapshot. A client records only when asked. *)
let with_obs ~server (metrics, stats) f =
  if server || metrics <> None || stats then begin
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

(* ---- client mode --------------------------------------------------------- *)

(* How many of the words after a verb are its arguments. *)
type arity =
  | Fixed of int
  | Load  (* NAME PATH, then EPS when the next word is a number *)
  | Optional_name  (* the next word, unless it is a verb or a raw frame *)

(* Every shorthand verb with its arity and argument synopsis: the one table
   behind grouping words into commands, evict's look-ahead and the usage
   message. The read verbs are the protocol's families. *)
let verbs =
  [
    ("ping", Fixed 0, "");
    ("list", Fixed 0, "");
    ("stats", Fixed 0, "");
    ("shutdown", Fixed 0, "");
    ("evict", Optional_name, " [NAME]");
    ("load", Load, " NAME PATH [EPS]");
  ]
  @ List.map
      (fun f -> (Serve.Protocol.family_name f, Fixed 2, " NAME K"))
      Serve.Protocol.families
  @ [
      ("insert", Fixed 2, " NAME P1,P2,..");
      ("delete", Fixed 2, " NAME ID");
      ("flush", Fixed 1, " NAME");
      ("wait", Fixed 1, " NAME");
    ]

let arity_of verb =
  List.find_map (fun (v, a, _) -> if v = verb then Some a else None) verbs

let is_raw word = String.length word > 0 && word.[0] = '{'

(* Translate a shorthand command to one request frame. *)
let frame_of_command cmd =
  let send op fields = Ok (`Send (("op", Serve.Json.Str op) :: fields)) in
  let name n = ("name", Serve.Json.Str n) in
  match cmd with
  | [ "wait"; n ] -> Ok (`Wait n)
  | [ (("ping" | "list" | "stats" | "shutdown" | "evict") as op) ] ->
      send op []
  | [ (("evict" | "flush") as op); n ] -> send op [ name n ]
  | [ "load"; n; path ] ->
      send "load" [ name n; ("path", Serve.Json.Str path) ]
  | [ "load"; n; path; eps ] -> (
      match float_of_string_opt eps with
      | Some e ->
          send "load"
            [ name n; ("path", Serve.Json.Str path); ("approx", Serve.Json.Num e) ]
      | None -> Error (Printf.sprintf "load: EPS must be a number, got %S" eps))
  | [ "insert"; n; point ] -> (
      let coords =
        String.split_on_char ',' point
        |> List.map (fun c -> float_of_string_opt (String.trim c))
      in
      if List.exists (fun c -> c = None) coords || coords = [] then
        Error
          (Printf.sprintf
             "insert: POINT must be comma-separated floats, got %S" point)
      else
        send "insert"
          [
            name n;
            ( "point",
              Serve.Json.Arr
                (List.map (fun c -> Serve.Json.Num (Option.get c)) coords) );
          ])
  | [ "delete"; n; id ] -> (
      match int_of_string_opt id with
      | Some id -> send "delete" [ name n; ("id", Serve.Json.int id) ]
      | None ->
          Error (Printf.sprintf "delete: ID must be an integer, got %S" id))
  | [ op; n; k ] when Serve.Protocol.family_of_op op <> None -> (
      match int_of_string_opt k with
      | Some k -> send op [ name n; ("k", Serve.Json.int k) ]
      | None -> Error (Printf.sprintf "%s: K must be an integer, got %S" op k))
  | cmd ->
      let usage = List.map (fun (verb, _, args) -> verb ^ args) verbs in
      Error
        (Printf.sprintf "unknown command %S (expected: %s, or a raw JSON frame)"
           (String.concat " " cmd)
           (String.concat " | " usage))

(* Group the positional words into commands: a word starting with '{' is a
   complete raw frame; otherwise a verb consumes its arguments. *)
let rec group_commands = function
  | [] -> Ok []
  | raw :: rest when is_raw raw ->
      Result.map (fun cmds -> `Raw raw :: cmds) (group_commands rest)
  | verb :: rest ->
      let arity =
        match arity_of verb with
        | None -> Error (Printf.sprintf "unknown command %S" verb)
        | Some (Fixed n) -> Ok n
        | Some Load ->
            (* paths are never bare numbers in practice *)
            Ok
              (match rest with
              | _ :: _ :: third :: _ when float_of_string_opt third <> None ->
                  3
              | _ -> 2)
        | Some Optional_name ->
            Ok
              (match rest with
              | next :: _ when (not (is_raw next)) && arity_of next = None -> 1
              | _ -> 0)
      in
      Result.bind arity (fun n ->
          if List.length rest < n then
            Error (Printf.sprintf "%s: expected %d argument(s)" verb n)
          else
            let args = List.filteri (fun i _ -> i < n) rest in
            let rest = List.filteri (fun i _ -> i >= n) rest in
            Result.bind (frame_of_command (verb :: args)) (fun cmd ->
                Result.map (fun cmds -> cmd :: cmds) (group_commands rest)))

let read_stdin_frames () =
  let rec go acc =
    match In_channel.input_line stdin with
    | None -> List.rev acc
    | Some line when String.trim line = "" -> go acc
    | Some line -> go (`Raw (String.trim line) :: acc)
  in
  go []

let run_client ~endpoint ~timeout commands =
  match group_commands commands with
  | Error m ->
      Fmt.epr "kregret_serve: %s@." m;
      124
  | Ok _ when (not (Float.is_finite timeout)) || timeout < 0. ->
      Fmt.epr "kregret_serve: --timeout must be finite and >= 0@.";
      124
  | Ok cmds -> (
      let cmds = if cmds = [] then read_stdin_frames () else cmds in
      match Serve.Client.connect_to ~timeout endpoint with
      | Error m ->
          Fmt.epr "kregret_serve: connect %s: %s@."
            (Serve.Endpoint.to_string endpoint)
            m;
          1
      | Ok client ->
          let ok = ref true in
          let send_raw line =
            match Serve.Client.request_raw client line with
            | Error m ->
                ok := false;
                Fmt.epr "kregret_serve: %s@." m
            | Ok resp ->
                print_endline resp;
                (match Serve.Json.parse resp with
                | Ok j
                  when Serve.Json.member "ok" j = Some (Serve.Json.Bool true) ->
                    ()
                | Ok _ | Error _ -> ok := false)
          in
          List.iter
            (fun cmd ->
              match cmd with
              | `Raw line -> send_raw line
              | `Send fields ->
                  send_raw (Serve.Json.to_string (Serve.Json.Obj fields))
              | `Wait name -> (
                  match Serve.Client.wait_ready client ~name with
                  | Ok () ->
                      print_endline
                        (Serve.Protocol.ok_response
                           [
                             ("op", Serve.Json.Str "wait");
                             ("name", Serve.Json.Str name);
                             ("status", Serve.Json.Str "ready");
                           ])
                  | Error m ->
                      ok := false;
                      Fmt.epr "kregret_serve: wait %s: %s@." name m))
            cmds;
          Serve.Client.close client;
          if !ok then 0 else 1)

(* ---- server mode --------------------------------------------------------- *)

let parse_preload spec =
  match String.index_opt spec '=' with
  | Some i when i > 0 && i < String.length spec - 1 ->
      Ok (String.sub spec 0 i, String.sub spec (i + 1) (String.length spec - i - 1))
  | _ -> Error (Printf.sprintf "--preload expects NAME=PATH, got %S" spec)

let run_server ~listeners ~cache_size ~max_line ~retry_after ~max_k ~workers
    ~approx ~preload ~quiet () =
  let preloads =
    List.map
      (fun spec ->
        match parse_preload spec with
        | Ok p -> p
        | Error m ->
            Fmt.epr "kregret_serve: %s@." m;
            exit 124)
      preload
  in
  (* a rejected setting is bad usage, like a bad --preload *)
  let config =
    try
      Serve.Server.config ~cache_capacity:cache_size ~max_line ~retry_after
        ?max_length:max_k ~workers ~approx ~listeners ()
    with Invalid_argument m ->
      Fmt.epr "kregret_serve: %s@." m;
      exit 124
  in
  (* SIGINT/SIGTERM are blocked in every thread (threads and domains
     inherit the mask, so this precedes the first one) and taken by one
     thread in sigwait. A handler would run only once some thread reached
     a poll point, which an idle server, asleep in select, never does. *)
  let stop_signals = [ Sys.sigint; Sys.sigterm ] in
  ignore (Thread.sigmask Unix.SIG_BLOCK stop_signals);
  match Serve.Server.start config with
  | Error m ->
      Fmt.epr "kregret_serve: cannot bind %s@." m;
      1
  | Ok server ->
      (* only signals the stop: this thread's [wait] below does the
         cleanup, so the process cannot exit halfway through it *)
      ignore
        (Thread.create
           (fun () ->
             ignore (Thread.wait_signal stop_signals);
             Serve.Server.signal_stop server)
           ());
      let registry = Serve.Server.registry server in
      let preload_failed = ref false in
      List.iter
        (fun (name, path) ->
          match Serve.Registry.load ~approx registry ~name ~path with
          | Ok _ -> if not quiet then Fmt.epr "preloading %s (%s)@." name path
          | Error m ->
              preload_failed := true;
              Fmt.epr "kregret_serve: preload %s: %s@." name m)
        preloads;
      if !preload_failed then begin
        Serve.Server.stop server;
        1
      end
      else begin
        if not quiet then
          Fmt.epr
            "kregret_serve: listening on %s (cache %d, workers %d, jobs %d)@."
            (String.concat ", "
               (List.map Serve.Endpoint.to_string
                  (Serve.Server.endpoints server)))
            cache_size workers (Pool.get_jobs ());
        match Serve.Server.wait server with
        | () ->
            if not quiet then Fmt.epr "kregret_serve: stopped@.";
            0
        | exception e ->
            Fmt.epr "kregret_serve: the IO loop failed: %s@."
              (Printexc.to_string e);
            1
      end

(* ---- cmdliner ------------------------------------------------------------ *)

let run client socket listen connect timeout cache_size max_line retry_after
    max_k workers approx preload jobs quiet obs commands =
  with_obs ~server:(not client) obs @@ fun () ->
  Pool.set_jobs jobs;
  let parse_endpoint spec =
    match Serve.Endpoint.parse spec with
    | Ok ep -> ep
    | Error m ->
        Fmt.epr "kregret_serve: %s@." m;
        exit 124
  in
  if client then
    let endpoint =
      parse_endpoint (match connect with Some c -> c | None -> socket)
    in
    run_client ~endpoint ~timeout commands
  else if commands <> [] then begin
    Fmt.epr
      "kregret_serve: positional commands are only valid with --client@.";
    124
  end
  else
    (* --listen wins; plain --socket keeps the pre-TCP calling convention *)
    let listeners =
      match listen with
      | [] -> [ Serve.Endpoint.Unix_path socket ]
      | specs -> List.map parse_endpoint specs
    in
    run_server ~listeners ~cache_size ~max_line ~retry_after ~max_k ~workers
      ~approx ~preload ~quiet ()

let socket_arg =
  Arg.(
    value
    & opt string (Filename.concat (Filename.get_temp_dir_name ()) "kregret-serve.sock")
    & info [ "socket" ] ~docv:"PATH"
        ~doc:
          "Unix-domain socket path to bind (server) or connect to (client). \
           Superseded by $(b,--listen) / $(b,--connect).")

let listen_arg =
  Arg.(
    value
    & opt_all string []
    & info [ "listen" ] ~docv:"ENDPOINT"
        ~doc:
          "Listen on $(docv) — $(b,unix:)PATH or $(b,tcp:)HOST:PORT (port 0 \
           picks a free port). Repeatable; every listener serves the same \
           registry. Overrides $(b,--socket).")

let connect_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "connect" ] ~docv:"ENDPOINT"
        ~doc:
          "Client mode: connect to $(docv) ($(b,unix:)PATH or \
           $(b,tcp:)HOST:PORT) instead of $(b,--socket).")

let workers_arg =
  Arg.(
    value & opt int 4
    & info [ "workers" ] ~docv:"N"
        ~doc:
          "Request-handler threads behind the event-driven IO loop (at least \
           1).")

let approx_arg =
  Arg.(
    value & opt float 0.
    & info [ "approx" ] ~docv:"EPS"
        ~doc:
          "Default ε-kernel bound for dataset loads: with $(docv) > 0 each \
           load first reduces the data to the per-direction maxima of a \
           direction net with worst-case regret slack at most $(docv) — \
           answers become approximate with a certified additive bound, and \
           approximate datasets are static. A per-load $(i,approx) field on \
           the wire overrides this. 0 (the default) keeps loads exact.")

let client_arg =
  Arg.(
    value & flag
    & info [ "client" ]
        ~doc:
          "Client mode: connect to $(b,--socket) and run the $(i,COMMAND) \
           arguments (or JSON frames from stdin), printing one raw response \
           line per request. Exits 1 if any response is not ok.")

let timeout_arg =
  Arg.(
    value & opt float 30.
    & info [ "timeout" ] ~docv:"SECONDS"
        ~doc:"Client receive timeout per response (finite, at least 0).")

let cache_arg =
  Arg.(
    value & opt int 128
    & info [ "cache-size" ] ~docv:"N"
        ~doc:"Result-cache capacity in entries; 0 disables caching.")

let max_line_arg =
  Arg.(
    value
    & opt int Serve.Protocol.default_max_line
    & info [ "max-line" ] ~docv:"BYTES" ~doc:"Per-frame size limit.")

let retry_after_arg =
  Arg.(
    value & opt float 0.05
    & info [ "retry-after" ] ~docv:"SECONDS"
        ~doc:"Hint attached to $(i,building) errors (finite, at least 0).")

let max_k_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-k" ] ~docv:"K"
        ~doc:
          "Cap StoredList materialization at $(docv) points per dataset (at \
           least 1); queries beyond the cap return the whole materialized \
           list.")

let preload_arg =
  Arg.(
    value
    & opt_all string []
    & info [ "preload" ] ~docv:"NAME=PATH"
        ~doc:"Load a CSV dataset at startup (repeatable).")

(* validated at parse time: a bad --jobs is a usage error (exit 124) *)
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
    value
    & opt jobs_conv (Pool.get_jobs ())
    & info [ "jobs"; "j" ] ~docv:"JOBS"
        ~doc:
          "Pool width for dataset builds. Served answers are bit-identical \
           at any width.")

let quiet_arg =
  Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"Suppress progress logging.")

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"PATH"
        ~doc:
          "Write a kregret-obs/v1 JSON metrics snapshot to $(docv) on exit. \
           A server always records its metrics (the $(i,stats) verb replies \
           with the live snapshot); in client mode this turns recording \
           on.")

let stats_arg =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:
          "Print a human-readable metrics table to stderr on exit (in client \
           mode this turns recording on).")

let obs_term = Term.(const (fun m s -> (m, s)) $ metrics_arg $ stats_arg)

let commands_arg =
  Arg.(
    value & pos_all string []
    & info [] ~docv:"COMMAND"
        ~doc:
          "Client-mode commands: $(b,ping), $(b,list), $(b,stats), \
           $(b,shutdown), $(b,evict) [NAME], $(b,load) NAME PATH [EPS], \
           $(b,query) NAME K, $(b,mrr) NAME K, $(b,rank_regret) NAME K, \
           $(b,insert) NAME P1,P2,.., $(b,delete) NAME ID, $(b,flush) NAME, \
           $(b,wait) NAME, or a raw JSON frame (anything starting with \
           '{'). A bare number after $(b,load) NAME PATH is EPS.")

let cmd =
  let doc = "serve k-regret queries from precomputed StoredLists" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Runs the offline pipeline of the paper (skyline filter, happy-point \
         reduction, GeoGreedy materialization) once per loaded dataset, in \
         the background, then answers every $(i,query)/$(i,mrr) request as \
         an O(k) StoredList prefix read — with an LRU result cache and \
         single-flight coalescing of concurrent identical queries on top. \
         $(i,rank_regret) requests answer the sibling rank-regret \
         representative query (lib/rrr/rrr.mli): a <= K subset minimizing \
         the certified max rank over every linear preference, cached under \
         its own key kind so rank certificates and regret selections never \
         collide. \
         Loaded datasets are dynamic: $(i,insert)/$(i,delete)/$(i,flush) \
         requests apply incremental maintenance (lib/core/dynamic.mli) — \
         in place on the IO thread when the update cannot move the \
         skyline, otherwise as a repair on the server's build worker — \
         and queries key on the dataset's versions so stale cached \
         answers age out on their own. The wire protocol is one \
         JSON object per line over a stream socket (kregret-serve/v1): any \
         mix of Unix-domain and TCP listeners via repeated $(b,--listen), \
         multiplexed by one event-driven IO thread with a $(b,--workers) \
         handler pool. Loads with $(i,approx) = ε > 0 reduce the \
         data to an ε-kernel first (lib/approx/kernel.mli): much faster \
         builds, answers carry a certified additive regret bound, and exact \
         and approximate answers for the same file never share a cache \
         entry.";
      `S Manpage.s_examples;
      `Pre
        "  kregret_serve --listen unix:/tmp/kr.sock --listen \
         tcp:127.0.0.1:7070 --preload nba=nba.csv &\n\
        \  kregret_serve --connect tcp:127.0.0.1:7070 --client wait nba query \
         nba 5\n\
        \  echo '{\"op\":\"stats\"}' | kregret_serve --socket /tmp/kr.sock \
         --client\n\
        \  kregret_serve --socket /tmp/kr.sock --client shutdown";
    ]
  in
  Cmd.v
    (Cmd.info "kregret_serve" ~version:"1.0.0" ~doc ~man)
    Term.(
      const run $ client_arg $ socket_arg $ listen_arg $ connect_arg
      $ timeout_arg $ cache_arg $ max_line_arg $ retry_after_arg $ max_k_arg
      $ workers_arg $ approx_arg $ preload_arg $ jobs_arg
      $ quiet_arg $ obs_term $ commands_arg)

let () = exit (Cmd.eval' cmd)
