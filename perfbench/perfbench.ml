(* The benchmark program. perfbench/run.py builds it and starts it in a
   fresh working directory for every run:

     perfbench WORKLOAD --phase setup|run --seed N --seconds S
               --trace 0|1 --golden DIR [--trace-out FILE]
     perfbench warm          fill ./.yukta_cache with every default design
     perfbench golden DIR SEED...
                             rewrite the golden files (fleet blocks for
                             the given seeds)

   WORKLOAD is suite, fleet, serve or sweep. The program prints "ready"
   once set up; with --phase run it then measures for S seconds and
   prints one JSON result line. With --trace 1 the result holds the
   per-layer metrics of a traced run and the spans go to FILE. *)

let usage () =
  prerr_endline
    "usage: perfbench (suite|fleet|serve|sweep) --phase setup|run --seed N --seconds S\n\
    \                 --trace 0|1 --golden DIR [--trace-out FILE]\n\
    \       perfbench warm\n\
    \       perfbench golden DIR SEED...";
  exit 2

let measure workload args =
  let phase = ref "run" and seed = ref 42 and seconds = ref 10.0 in
  let trace = ref false and golden = ref "" and trace_out = ref None in
  let rec parse = function
    | [] -> ()
    | "--phase" :: (("setup" | "run") as p) :: rest ->
      phase := p;
      parse rest
    | "--seed" :: n :: rest when int_of_string_opt n <> None ->
      seed := int_of_string n;
      parse rest
    | "--seconds" :: s :: rest when Option.fold ~none:false ~some:(fun v -> v > 0.0) (float_of_string_opt s) ->
      seconds := float_of_string s;
      parse rest
    | "--trace" :: (("0" | "1") as t) :: rest ->
      trace := t = "1";
      parse rest
    | "--golden" :: d :: rest ->
      golden := d;
      parse rest
    | "--trace-out" :: f :: rest ->
      trace_out := Some f;
      parse rest
    | _ -> usage ()
  in
  parse args;
  let ctx = { Common.seed = !seed; seconds = !seconds; trace = !trace; golden = !golden } in
  (* The program's own instrumentation stays off: the collector switches
     it on, and the benchmark measures the uninstrumented program. *)
  if Obs.Collector.enabled () then failwith "perfbench: the Obs collector must stay off";
  Tracer.on := ctx.Common.trace;
  let go setup run =
    let st = setup ctx in
    print_endline "ready";
    if !phase = "run" then begin
      let o = run ctx st in
      (match !trace_out with Some f when ctx.Common.trace -> Tracer.write f | _ -> ());
      print_endline (Common.result_line ~trace:ctx.Common.trace o)
    end
  in
  match workload with
  | "suite" -> go Wl_suite.setup Wl_suite.run
  | "fleet" -> go Wl_fleet.setup Wl_fleet.run
  | "serve" -> go Wl_serve.setup Wl_serve.run
  | "sweep" -> go Wl_sweep.setup Wl_sweep.run
  | _ -> usage ()

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "warm" ] ->
    Yukta.Designs.prepare ();
    print_endline "warm"
  | "golden" :: dir :: seeds ->
    let seeds =
      List.map (fun s -> match int_of_string_opt s with Some n -> n | None -> usage ()) seeds
    in
    Wl_suite.write_golden dir;
    Wl_fleet.write_golden dir seeds;
    Wl_sweep.write_golden dir;
    print_endline "golden"
  | workload :: args -> measure workload args
  | [] -> usage ()
