(* Command-line driver for the Yukta reproduction.

     yukta_cli apps                      list workloads
     yukta_cli schemes                   list registered schemes
     yukta_cli run -s yukta -a mcf       run a scheme on a workload
     yukta_cli run -s three-layer        run the 3-layer demo stack
     yukta_cli run -s yukta -s coord -j 2  two schemes on a domain pool
     yukta_cli run --jsonl out.jsonl ... run with the Obs collector on
     yukta_cli run --health ...          append controller-health tables
     yukta_cli run --recorder 64 ...     flight recorder (dump on trip)
     yukta_cli csv -s coord -a x264      CSV trace to stdout
     yukta_cli trace out.jsonl           summarize an Obs JSONL trace
     yukta_cli trace --counters f.jsonl  also counters + recorder dumps
     yukta_cli design                    synthesize & describe the designs
     yukta_cli faults                    show a deterministic fault schedule
     yukta_cli faults --run -s yukta     replay it against a scheme
     yukta_cli trace -f out.jsonl        tail a live trace (poll+seek)
     yukta_cli cache                     list the on-disk design cache
     yukta_cli cache --clear             wipe it
     yukta_cli serve --port 7077         NDJSON session server
     yukta_cli serve --socket y.sock --once   CI smoke mode
     yukta_cli sweep out.json            a `bench sweep` frontier as a table

   Rack-capped fleet runs are `bench fleet` (BENCHMARKS.md). *)

open Cmdliner
open Yukta

(* Scheme names come from the registry: canonical keys, their aliases,
   and (case-insensitively) abbreviations and display names all parse. *)
let scheme_conv =
  let parse s =
    match Schemes.find s with
    | Some info -> Ok info
    | None ->
      Error
        (`Msg
           (Printf.sprintf "unknown scheme %S (one of: %s)" s
              (String.concat ", "
                 (List.map (fun (i : Schemes.info) -> i.Schemes.key) Schemes.all))))
  in
  let print fmt (i : Schemes.info) = Format.pp_print_string fmt i.Schemes.key in
  Arg.conv (parse, print)

(* An app name parses to the name and the jobs it stands for; an
   unknown name is refused with the list of valid ones. *)
let app_conv =
  let parse s =
    match Board.Workload.resolve s with
    | Some workloads -> Ok (s, workloads)
    | None ->
      Error
        (`Msg
           (Printf.sprintf "unknown app %S (one of: %s)" s
              (String.concat ", " Board.Workload.app_names)))
  in
  let print fmt (name, _) = Format.pp_print_string fmt name in
  Arg.conv (parse, print)

(* A count, size or budget: an integer >= 1. A value outside the range
   is a usage error naming the flag, like a malformed one. *)
let count_conv =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "expected an integer >= 1, got %S" s))
  in
  Arg.conv (parse, Format.pp_print_int)

(* A duration in seconds: a finite number > 0 (NaN and infinity are
   refused). *)
let seconds_conv =
  let parse s =
    match float_of_string_opt s with
    | Some x when Float.is_finite x && x > 0.0 -> Ok x
    | _ ->
      Error (`Msg (Printf.sprintf "expected a finite number > 0, got %S" s))
  in
  Arg.conv (parse, Format.pp_print_float)

(* A TCP port, 0 (a free one) to 65535: a larger number would bind its
   remainder modulo 65536. *)
let port_conv =
  let parse s =
    match int_of_string_opt s with
    | Some p when p >= 0 && p <= 65535 -> Ok p
    | _ -> Error (`Msg (Printf.sprintf "expected a port 0-65535, got %S" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let app_arg =
  let doc = "Workload: a PARSEC/SPEC name (see `apps`) or a mix (blmc, ...)." in
  Arg.(
    value
    & opt app_conv ("blackscholes", [ Board.Workload.by_name "blackscholes" ])
    & info [ "a"; "app" ] ~docv:"APP" ~doc)

let scheme_arg =
  let doc = "Controller scheme (see `schemes`)." in
  Arg.(
    value
    & opt scheme_conv (Schemes.find_exn "yukta")
    & info [ "s"; "scheme" ] ~docv:"SCHEME" ~doc)

let apps_cmd =
  let run () =
    print_endline "evaluation suite:";
    List.iter
      (fun w ->
        Printf.printf "  %-14s %6.0f Ginst, up to %d threads\n"
          w.Board.Workload.name
          (Board.Workload.total_ginsts w)
          (Board.Workload.max_threads w))
      Board.Workload.evaluation_suite;
    print_endline "heterogeneous mixes: blmc, stga, blst, mcga";
    print_endline
      "training set: swaptions, vips, astar, perlbench, milc, namd"
  in
  Cmd.v (Cmd.info "apps" ~doc:"List workloads") Term.(const run $ const ())

let schemes_cmd =
  let run () =
    List.iter
      (fun (i : Schemes.info) ->
        Printf.printf "  %-12s %-14s [%s] %s\n" i.Schemes.key i.Schemes.abbrev
          (String.concat ">" i.Schemes.layers)
          i.Schemes.description;
        Printf.printf "  %-12s %s%s\n" "" i.Schemes.citation
          (match i.Schemes.aliases with
          | [] -> ""
          | a -> "; aliases: " ^ String.concat ", " a))
      Schemes.all
  in
  Cmd.v (Cmd.info "schemes" ~doc:"List registered schemes")
    Term.(const run $ const ())

let jsonl_arg =
  let doc =
    "Enable the Obs collector for the run and write the JSONL trace \
     (spans, events, metric dumps) to $(docv). Summarize it afterwards \
     with `yukta_cli trace $(docv)`."
  in
  Arg.(
    value & opt (some string) None & info [ "jsonl" ] ~docv:"FILE" ~doc)

let jobs_arg =
  let doc =
    "Evaluate the schemes on $(docv) parallel domains (default 1: \
     serial). Results print in scheme order either way, byte-identical \
     to the serial run; with a single -s the flag has no effect."
  in
  Arg.(value & opt count_conv 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let schemes_arg =
  let doc =
    "Controller scheme (see `schemes`). Repeatable: each -s adds a \
     scheme to evaluate on the same workload."
  in
  Arg.(value & opt_all scheme_conv [] & info [ "s"; "scheme" ] ~docv:"SCHEME" ~doc)

let health_arg =
  let doc =
    "Print each scheme's controller-health summary (per-layer tracking \
     error and saturation duty, guardband channels, trips) after its \
     metrics."
  in
  Arg.(value & flag & info [ "health" ] ~doc)

let recorder_arg =
  let doc =
    "Enable the flight recorder with a $(docv)-event window: emergency \
     trips and fault injections dump the preceding event window (into \
     the --jsonl trace when given), and the dump count is reported."
  in
  Arg.(
    value & opt (some count_conv) None & info [ "recorder" ] ~docv:"N" ~doc)

let run_cmd =
  let print_result ~banner ~health ((scheme : Schemes.info), (r : Stack.result))
      =
    if banner then
      Printf.printf "\n== %s (%s) ==\n" scheme.Schemes.name
        (String.concat ">" scheme.Schemes.layers);
    let m = r.Stack.metrics in
    Printf.printf "completed: %b\n" r.Stack.completed;
    Printf.printf "execution time: %.1f s\n" m.Board.Xu3.execution_time;
    Printf.printf "energy:         %.1f J\n" m.Board.Xu3.total_energy;
    Printf.printf "E x D:          %.0f J.s\n" m.Board.Xu3.energy_delay;
    Printf.printf "emergency trips: %d\n" m.Board.Xu3.trips;
    if health then print_string (Obs.Health.render r.Stack.health)
  in
  let run (schemes : Schemes.info list) (app, workloads) jsonl jobs health
      recorder =
    Option.iter
      (fun n ->
        Obs.Recorder.clear ();
        Obs.Recorder.enable ~capacity:n ())
      recorder;
    let schemes =
      match schemes with [] -> [ Schemes.find_exn "yukta" ] | l -> l
    in
    let banner = List.length schemes > 1 in
    let go () =
      Parallel.Pool.with_pool ~jobs (fun pool ->
          (* Single-force before fan-out: warm the design memos. *)
          List.iter (fun s -> ignore (Schemes.stack s)) schemes;
          Parallel.Pool.map_reduce pool
            ~map:(fun s -> (s, Schemes.run s workloads))
            ~init:()
            ~reduce:(fun () ((s : Schemes.info), r) ->
              Printf.printf "running %s (%s) on %s...\n%!" s.Schemes.name
                (String.concat ">" s.Schemes.layers)
                app;
              print_result ~banner ~health (s, r))
            schemes)
    in
    (match jsonl with
    | None -> go ()
    | Some file -> (
      match Obs.Collector.with_collection ~file go with
      | () -> ()
      | exception Sys_error msg ->
        prerr_endline ("yukta_cli run: " ^ msg);
        exit 1));
    if recorder <> None then begin
      Printf.printf "recorder dumps: %d\n" (Obs.Recorder.dump_count ());
      Obs.Recorder.disable ()
    end;
    match jsonl with
    | Some file -> Printf.printf "trace written to %s\n" file
    | None -> ()
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Run one or more schemes (-s, repeatable) on one workload; -j N \
          evaluates them in parallel")
    Term.(
      const run $ schemes_arg $ app_arg $ jsonl_arg $ jobs_arg $ health_arg
      $ recorder_arg)

let csv_cmd =
  let run scheme (_, workloads) =
    let r = Schemes.run ~collect_trace:true scheme workloads in
    print_endline
      "time_s,power_big_w,power_big_sensor_w,power_little_w,bips,temp_c,freq_big_ghz,big_cores";
    Array.iter
      (fun (p : Stack.trace_point) ->
        Printf.printf "%.1f,%.3f,%.3f,%.3f,%.3f,%.1f,%.1f,%d\n" p.Stack.time
          p.Stack.power_big p.Stack.power_big_sensor p.Stack.power_little
          p.Stack.bips p.Stack.temperature p.Stack.freq_big
          p.Stack.big_cores)
      r.Stack.trace
  in
  Cmd.v
    (Cmd.info "csv" ~doc:"Run one scheme and print a CSV trace to stdout")
    Term.(const run $ scheme_arg $ app_arg)

(* trace --follow: a poll+seek tail. New complete lines are printed as
   the producer appends them; partial trailing lines wait in the buffer
   until their newline arrives. Truncation rewinds to the start. *)
let follow_file file ~poll ~idle_exit =
  let ic = open_in_bin file in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let buf = Buffer.create 4096 in
      let pos = ref 0 in
      let idle = ref 0.0 in
      let stop = ref false in
      while not !stop do
        let size = (Unix.stat file).Unix.st_size in
        if size < !pos then begin
          (* Truncated/rotated: start over. *)
          pos := 0;
          Buffer.clear buf
        end;
        if size > !pos then begin
          seek_in ic !pos;
          Buffer.add_string buf (really_input_string ic (size - !pos));
          pos := size;
          idle := 0.0;
          let data = Buffer.contents buf in
          Buffer.clear buf;
          let parts = String.split_on_char '\n' data in
          let rec emit = function
            | [] -> ()
            | [ rest ] -> Buffer.add_string buf rest
            | line :: tl ->
              print_endline line;
              emit tl
          in
          emit parts;
          flush stdout
        end
        else begin
          Unix.sleepf poll;
          idle := !idle +. poll;
          match idle_exit with
          | Some limit when !idle >= limit -> stop := true
          | _ -> ()
        end
      done)

let trace_cmd =
  let file_arg =
    let doc = "JSONL trace file produced by `run --jsonl` or bench." in
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc)
  in
  let counters_arg =
    let doc =
      "Also list final counter values and one line per flight-recorder \
       dump (simulated time, reason, window size)."
    in
    Arg.(value & flag & info [ "counters" ] ~doc)
  in
  let follow_arg =
    let doc =
      "Tail mode: print new trace lines as they are appended (poll + \
       seek) instead of summarizing. Interrupt to stop."
    in
    Arg.(value & flag & info [ "f"; "follow" ] ~doc)
  in
  let poll_arg =
    let doc = "Polling interval for --follow, seconds." in
    Arg.(value & opt seconds_conv 0.2 & info [ "poll" ] ~docv:"S" ~doc)
  in
  let idle_exit_arg =
    let doc =
      "With --follow, exit once the file has been quiet for $(docv) \
       seconds (default: follow forever)."
    in
    Arg.(
      value
      & opt (some seconds_conv) None
      & info [ "idle-exit" ] ~docv:"S" ~doc)
  in
  let run file counters follow poll idle_exit =
    if follow then
      match follow_file file ~poll ~idle_exit with
      | () -> ()
      | exception Unix.Unix_error (e, _, _) ->
        Printf.eprintf "%s: %s\n" file (Unix.error_message e);
        exit 1
    else
      match Obs.Trace.read_file file with
      | entries ->
        print_string (Obs.Trace.render ~counters (Obs.Trace.summarize entries))
      | exception Obs.Trace.Bad_trace msg ->
        Printf.eprintf "%s: %s\n" file msg;
        exit 1
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Summarize an Obs JSONL trace (span timings, event counts), or \
          tail it live with --follow")
    Term.(
      const run $ file_arg $ counters_arg $ follow_arg $ poll_arg
      $ idle_exit_arg)

let design_cmd =
  let run () =
    Printf.printf "synthesizing (cached under .yukta_cache)...\n%!";
    let describe name (syn : Design.synthesis) =
      let c = Controller.cost syn.Design.controller in
      Printf.printf
        "%s: %d states, %d inputs, %d outputs+externals; mu peak %.3f, gamma %.3f\n"
        name c.Controller.states c.Controller.inputs
        c.Controller.outputs_and_externals syn.Design.mu_peak syn.Design.gamma
    in
    describe "hardware layer" (Designs.hw ());
    describe "software layer" (Designs.sw ())
  in
  Cmd.v
    (Cmd.info "design" ~doc:"Synthesize and describe the default controllers")
    Term.(const run $ const ())

let faults_cmd =
  let seed_arg =
    let doc = "Schedule seed: same seed, same schedule." in
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let out_arg =
    let doc =
      "Draw the out-of-guardband profile (plant drifts leave the \
       certified uncertainty ball) instead of the in-guardband one."
    in
    Arg.(value & flag & info [ "out-of-guardband"; "out" ] ~doc)
  in
  let horizon_arg =
    let doc = "Campaign horizon in simulated seconds." in
    Arg.(value & opt seconds_conv 120.0 & info [ "horizon" ] ~docv:"S" ~doc)
  in
  let count_arg =
    let doc = "Number of faults drawn." in
    Arg.(value & opt count_conv 6 & info [ "count" ] ~docv:"N" ~doc)
  in
  let run_arg =
    let doc =
      "Also replay the schedule against the selected scheme (-s) and \
       workload (-a): one clean run, one faulted run, and the \
       degradation between them."
    in
    Arg.(value & flag & info [ "run" ] ~doc)
  in
  let run seed out horizon count do_run (scheme : Schemes.info)
      (app, workloads) =
    let profile =
      if out then Fault.Schedule.out_of_guardband ~horizon ~count ()
      else Fault.Schedule.in_guardband ~horizon ~count ()
    in
    let schedule = Fault.Schedule.generate ~seed profile in
    Printf.printf "%s schedule (seed %d, %d faults over %.0f s):\n"
      profile.Fault.Schedule.label seed count horizon;
    List.iter
      (fun f -> Printf.printf "  %s\n" (Fault.Spec.describe f))
      schedule;
    if do_run then begin
      Printf.printf "\nreplaying against %s on %s...\n%!"
        scheme.Schemes.name app;
      match
        Fault.Campaign.run ~schemes:[ scheme ] ~workloads schedule
      with
      | [] -> ()
      | o :: _ ->
        let open Fault.Campaign in
        Printf.printf "clean   E x D: %10.1f J.s   trips: %d\n"
          o.clean.Board.Xu3.energy_delay o.clean.Board.Xu3.trips;
        Printf.printf "faulted E x D: %10.1f J.s   trips: %d\n"
          o.faulted.Board.Xu3.energy_delay o.faulted.Board.Xu3.trips;
        Printf.printf "inflation: x%.3f   extra trips: %d   survived: %b\n"
          o.exd_inflation o.extra_trips o.survived;
        Printf.printf "faults injected: %d   recovery: %s\n" o.injections
          (match o.recovery_s with
          | Some s -> Printf.sprintf "%.1f s after last clear" s
          | None -> "never")
    end
  in
  Cmd.v
    (Cmd.info "faults"
       ~doc:
         "Show a deterministic fault schedule; with --run, replay it \
          against a scheme and report degradation")
    Term.(
      const run $ seed_arg $ out_arg $ horizon_arg $ count_arg $ run_arg
      $ scheme_arg $ app_arg)

let cache_cmd =
  let clear_arg =
    let doc = "Delete every cache entry instead of listing." in
    Arg.(value & flag & info [ "clear" ] ~doc)
  in
  let run clear =
    let dir = Designs.cache_dir in
    if not (Sys.file_exists dir && Sys.is_directory dir) then
      Printf.printf "cache %s: empty (directory absent)\n" dir
    else begin
      let files = Array.to_list (Sys.readdir dir) in
      let bins =
        List.sort compare
          (List.filter (fun f -> Filename.check_suffix f ".bin") files)
      in
      if clear then begin
        List.iter
          (fun f ->
            try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
          files;
        Printf.printf "cache %s: removed %d entries\n" dir (List.length bins)
      end
      else if bins = [] then Printf.printf "cache %s: empty\n" dir
      else begin
        Printf.printf "cache %s: %d entries\n" dir (List.length bins);
        List.iter
          (fun f ->
            let path = Filename.concat dir f in
            let digest = Filename.chop_suffix f ".bin" in
            let label =
              let meta = Filename.concat dir (digest ^ ".meta") in
              if Sys.file_exists meta then begin
                let ic = open_in meta in
                let l = try input_line ic with End_of_file -> "" in
                close_in ic;
                l
              end
              else "(unlabeled)"
            in
            let st = Unix.stat path in
            let tm = Unix.localtime st.Unix.st_mtime in
            Printf.printf "  %-12s %8d B  %04d-%02d-%02d %02d:%02d  %s\n"
              (String.sub digest 0 (min 12 (String.length digest)))
              st.Unix.st_size (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1)
              tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min label)
          bins
      end
    end
  in
  Cmd.v
    (Cmd.info "cache"
       ~doc:
         "List the on-disk design cache (.yukta_cache: entry, size, \
          mtime, what it holds), or wipe it with --clear")
    Term.(const run $ clear_arg)

let serve_cmd =
  let socket_arg =
    let doc = "Serve on a Unix-domain socket at $(docv)." in
    Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)
  in
  let port_arg =
    let doc = "Serve on loopback TCP port $(docv) (0 picks a free port)." in
    Arg.(
      value & opt (some port_conv) None & info [ "port" ] ~docv:"PORT" ~doc)
  in
  let once_arg =
    let doc =
      "Exit after the first accepted connection (and any concurrent \
       ones) disconnect — the CI smoke mode."
    in
    Arg.(value & flag & info [ "once" ] ~doc)
  in
  let idle_arg =
    let doc = "Disconnect silent clients after $(docv) seconds." in
    Arg.(
      value & opt seconds_conv 30.0 & info [ "idle-timeout" ] ~docv:"S" ~doc)
  in
  let budget_arg =
    let doc =
      "Per-session epoch budget per loop iteration (fairness between \
       concurrent sessions)."
    in
    Arg.(value & opt count_conv 256 & info [ "step-budget" ] ~docv:"N" ~doc)
  in
  let run socket port once idle budget =
    let address =
      match (socket, port) with
      | Some _, Some _ ->
        prerr_endline "yukta_cli serve: give either --socket or --port";
        exit 2
      | Some path, None -> Serve.Server.Unix_path path
      | None, Some p -> Serve.Server.Tcp ("", p)
      | None, None -> Serve.Server.Unix_path "yukta.sock"
    in
    let server =
      match Serve.Server.create ~idle_timeout:idle ~step_budget:budget address with
      | s -> s
      | exception Unix.Unix_error (e, _, _) ->
        Printf.eprintf "yukta_cli serve: bind failed: %s\n"
          (Unix.error_message e);
        exit 1
    in
    (match Serve.Server.address server with
    | Unix.ADDR_UNIX path -> Printf.printf "serving on unix socket %s\n%!" path
    | Unix.ADDR_INET (_, p) -> Printf.printf "serving on tcp port %d\n%!" p);
    let stop _ = Serve.Server.stop server in
    Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
    Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
    Serve.Server.run ~once server;
    let s = Serve.Server.stats server in
    Printf.printf
      "server done: %d sessions, %d frames, %d controller swaps, %d errors\n"
      s.accepted s.frames s.swaps s.errors
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve scheme sessions over newline-delimited JSON on a Unix \
          or TCP socket (streaming observations in, decisions out, with \
          optional online adaptation)")
    Term.(const run $ socket_arg $ port_arg $ once_arg $ idle_arg $ budget_arg)

let sweep_cmd =
  let file_arg =
    let doc =
      "A yukta.bench-sweep/v1 document, as written by `bench sweep --json` \
       (a single shard or a --merge result)."
    in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)
  in
  let run file =
    let doc =
      let ic = open_in_bin file in
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      match Obs.Json.of_string s with
      | doc -> doc
      | exception Obs.Json.Parse_error msg ->
        Printf.eprintf "%s: %s\n" file msg;
        exit 1
    in
    (match
       Option.bind (Obs.Json.member "schema" doc) Obs.Json.to_string_opt
     with
    | Some "yukta.bench-sweep/v1" -> ()
    | Some s ->
      Printf.eprintf "%s: schema %s is not yukta.bench-sweep/v1\n" file s;
      exit 1
    | None ->
      Printf.eprintf "%s: no schema field\n" file;
      exit 1);
    let frontier =
      match Obs.Json.member "frontier" doc with
      | Some f -> f
      | None ->
        Printf.eprintf "%s: no frontier block\n" file;
        exit 1
    in
    let str key =
      match Option.bind (Obs.Json.member key frontier) Obs.Json.to_string_opt with
      | Some s -> s
      | None -> "?"
    in
    let int key =
      match Option.bind (Obs.Json.member key frontier) Obs.Json.to_int_opt with
      | Some n -> n
      | None -> 0
    in
    Printf.printf "sweep %s: %d of %d points (seed %s)\n" (str "fingerprint")
      (int "points") (int "cardinality")
      (match Option.bind (Obs.Json.member "seed" frontier) Obs.Json.to_int_opt with
      | Some s -> string_of_int s
      | None -> "?");
    (match Obs.Json.member "probe" frontier with
    | Some probe ->
      let p key =
        Option.bind (Obs.Json.member key probe) Obs.Json.to_float_opt
      in
      (match
         ( Option.bind (Obs.Json.member "app" probe) Obs.Json.to_string_opt,
           p "ginsts",
           p "max_time_s" )
       with
      | Some app, Some g, Some t ->
        Printf.printf "probe: %s @ %.0f Ginsts, %.0f s horizon\n" app g t
      | _ -> ())
    | None -> ());
    match Obs.Json.member "members" frontier with
    | Some (Obs.Json.List members) ->
      Printf.printf "frontier: %d non-dominated points\n\n"
        (List.length members);
      Printf.printf "%5s  %-8s %6s %6s %6s %8s  %8s %12s %8s\n" "id"
        "layers" "delta" "weight" "bound" "epoch" "mu-peak" "ExD(J.s)"
        "macs";
      List.iter
        (fun m ->
          match Sweep.Frontier.entry_of_json m with
          | Some (e : Sweep.Frontier.entry) ->
            Printf.printf
              "%5d  %-8s %6.2f %6.2f %6.2f %7.2fs  %8.3f %12.2f %8d\n"
              e.Sweep.Frontier.point.Sweep.Space.id
              (Sweep.Space.arrangement_name
                 e.Sweep.Frontier.point.Sweep.Space.arrangement)
              e.Sweep.Frontier.point.Sweep.Space.delta
              e.Sweep.Frontier.point.Sweep.Space.weight
              e.Sweep.Frontier.point.Sweep.Space.bound
              e.Sweep.Frontier.point.Sweep.Space.epoch e.Sweep.Frontier.mu
              e.Sweep.Frontier.exd e.Sweep.Frontier.macs
          | None ->
            Printf.eprintf "%s: malformed frontier member\n" file;
            exit 1)
        members
    | _ ->
      Printf.eprintf "%s: frontier block has no members list\n" file;
      exit 1
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Print the Pareto frontier of a `bench sweep` artifact as a \
          table (one row per non-dominated design point)")
    Term.(const run $ file_arg)

let () =
  let info =
    Cmd.info "yukta_cli" ~version:"1.0"
      ~doc:"Multilayer SSV resource control on a simulated big.LITTLE board"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            apps_cmd;
            schemes_cmd;
            run_cmd;
            csv_cmd;
            trace_cmd;
            design_cmd;
            faults_cmd;
            cache_cmd;
            serve_cmd;
            sweep_cmd;
          ]))
