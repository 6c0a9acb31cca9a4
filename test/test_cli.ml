(* Help sync: every registered yukta_cli subcommand must appear in the
   top-level --help, so the CLI's own documentation can never silently
   fall behind the command group; `run` prints the same bytes at any -j;
   a bad flag value or an unwritable output path is an error that names
   it; `bench compare` exits with the codes the CI perf gate reads; and
   every bench entry point documents its flags and refuses an unknown one
   (the dune rule makes both built executables test dependencies). *)

let subcommands =
  (* The full command group of bin/yukta_cli.ml; adding a subcommand
     there without updating this list fails the count check below. *)
  [
    "apps"; "schemes"; "run"; "csv"; "trace"; "design"; "faults"; "cache";
    "serve"; "sweep";
  ]

let read_all ic =
  let b = Buffer.create 4096 in
  (try
     while true do
       Buffer.add_channel b ic 1
     done
   with End_of_file -> ());
  Buffer.contents b

(* The executables sit at ../bin/yukta_cli.exe and ../bench/main.exe
   from this test's own directory in _build (declared as dune deps),
   whatever the working directory. *)
let built path =
  let dir = Filename.dirname Sys.executable_name in
  let dir =
    if Filename.is_relative dir then Filename.concat (Sys.getcwd ()) dir
    else dir
  in
  Filename.concat dir path

let exe = built "../bin/yukta_cli.exe"
let bench_exe = built "../bench/main.exe"

(* [args] is a shell fragment; the program's stdout and exit status,
   run in [dir] when given. *)
let run_exe ?dir exe args =
  if not (Sys.file_exists exe) then Alcotest.failf "%s not found" exe;
  let cd =
    match dir with Some d -> "cd " ^ Filename.quote d ^ " && " | None -> ""
  in
  let ic = Unix.open_process_in (cd ^ Filename.quote exe ^ " " ^ args) in
  let out = read_all ic in
  (out, Unix.close_process_in ic)

let run_cli args = run_exe exe args

let cli args =
  match run_cli args with
  | out, Unix.WEXITED 0 -> out
  | _ -> Alcotest.fail (Printf.sprintf "yukta_cli %s failed" args)

(* --help=plain: no pager, stable formatting. *)
let cli_help () = cli "--help=plain"

let contains haystack needle =
  let lh = String.length haystack and ln = String.length needle in
  let rec scan i = i + ln <= lh && (String.sub haystack i ln = needle || scan (i + 1)) in
  scan 0

let test_every_subcommand_in_help () =
  let help = cli_help () in
  (* Each command renders as its own indented heading in the COMMANDS
     section, so match "\n       <name>", not a bare substring (which
     "run" would satisfy from any prose). *)
  List.iter
    (fun cmd ->
      Alcotest.(check bool)
        (Printf.sprintf "%S listed in --help" cmd)
        true
        (contains help ("\n       " ^ cmd)))
    subcommands

(* The headings of the COMMANDS section: lines indented by exactly
   seven spaces, up to the next section title. *)
let command_headings help =
  let rec from_commands = function
    | "COMMANDS" :: rest -> rest
    | _ :: rest -> from_commands rest
    | [] -> []
  in
  let rec headings acc = function
    | l :: _ when l <> "" && l.[0] <> ' ' -> List.rev acc
    | l :: rest ->
      let heading =
        String.length l > 7 && String.sub l 0 7 = "       " && l.[7] <> ' '
      in
      headings (if heading then l :: acc else acc) rest
    | [] -> List.rev acc
  in
  headings [] (from_commands (String.split_on_char '\n' help))

let test_subcommand_count () =
  Alcotest.(check int) "COMMANDS headings = listed subcommands"
    (List.length subcommands)
    (List.length (command_headings (cli_help ())))

let test_run_jobs_identical () =
  (* Two heuristic schemes (no synthesis): the banners and results must
     print in scheme order, byte for byte, whether the schemes run
     inline or on two domains. *)
  let run jobs =
    cli (Printf.sprintf "run -s coord -s decoupled -a blackscholes -j %d" jobs)
  in
  let j1 = run 1 in
  Alcotest.(check bool) "both schemes reported" true
    (contains j1 "running Coordinated heuristic"
    && contains j1 "running Decoupled heuristic");
  Alcotest.(check string) "-j 2 stdout equals -j 1" j1 (run 2)

(* An unknown app is a usage error naming the app and the valid ones
   (as an unknown scheme is), not an uncaught exception. *)
let test_unknown_app_named () =
  List.iter
    (fun args ->
      let out, status = run_cli (args ^ " 2>&1") in
      (match status with
      | Unix.WEXITED 124 -> ()
      | _ -> Alcotest.failf "yukta_cli %s: expected exit 124" args);
      Alcotest.(check bool)
        (Printf.sprintf "%s names the app and the valid ones" args)
        true
        (contains out {|unknown app "nope"|}
        && contains out "blackscholes" && contains out "blmc"
        && not (contains out "internal error")))
    [ "run -s coord -a nope"; "csv -s coord -a nope"; "faults --run -a nope" ]

(* A numeric flag given a value out of its range (a count below 1, a
   duration that is not finite and positive, a port above 65535) is a
   usage error naming the flag, refused before any work starts. *)
let test_bad_values_named () =
  let file = Filename.quote exe in
  List.iter
    (fun (args, flag) ->
      let out, status = run_cli (args ^ " 2>&1") in
      (match status with
      | Unix.WEXITED 124 -> ()
      | _ -> Alcotest.failf "yukta_cli %s: expected exit 124" args);
      Alcotest.(check bool)
        (Printf.sprintf "%s names %s" args flag)
        true
        (contains out (Printf.sprintf "option '%s'" flag)
        && not (contains out "internal error")))
    [
      ("run -s coord -j 0", "-j");
      ("run -s coord --recorder 0", "--recorder");
      ("faults --count 0", "--count");
      ("faults --horizon 0", "--horizon");
      ("faults --horizon nan", "--horizon");
      ("faults --horizon inf", "--horizon");
      ("trace -f --poll nan " ^ file, "--poll");
      ("trace -f --idle-exit nan " ^ file, "--idle-exit");
      ("serve --idle-timeout nan", "--idle-timeout");
      ("serve --step-budget 0", "--step-budget");
      ("serve --socket unused.sock --port 70000", "--port");
    ]

(* An output path in a directory that does not exist is an error naming
   the path: `run --jsonl` exits 1 (as `trace` does for a bad file) and
   bench exits 2 (its IO errors), with no uncaught exception. *)
let test_unwritable_output_named () =
  let dir = Filename.temp_dir "cli-output" "" in
  let path = Filename.concat (Filename.concat dir "absent") "out.json" in
  Fun.protect
    ~finally:(fun () -> Sys.rmdir dir)
    (fun () ->
      List.iter
        (fun (what, exe, args, code) ->
          let out, status = run_exe exe (args ^ " 2>&1") in
          (match status with
          | Unix.WEXITED c -> Alcotest.(check int) (what ^ " exit") code c
          | _ -> Alcotest.failf "%s did not exit" what);
          Alcotest.(check bool)
            (what ^ " names the path")
            true
            (contains out path
            && not (contains out "internal error" || contains out "Fatal error")))
        [
          ( "yukta_cli run --jsonl",
            exe,
            "run -s coord --jsonl " ^ Filename.quote path,
            1 );
          ("bench --json", bench_exe, "--tables --json " ^ Filename.quote path, 2);
        ])

(* [bench args --help] exits 0 and names each of [flags]. *)
let check_bench_help args flags =
  match run_exe bench_exe (args ^ " --help") with
  | out, Unix.WEXITED 0 ->
    List.iter
      (fun flag ->
        Alcotest.(check bool)
          (Printf.sprintf "bench%s --help names %s" args flag)
          true (contains out flag))
      flags
  | _ -> Alcotest.failf "bench%s --help did not exit 0" args

let test_bench_help_names_figures () =
  check_bench_help ""
    [
      "--tables"; "--fig9"; "--fig10"; "--fig11"; "--fig12"; "--fig13";
      "--fig14"; "--cost"; "--fig15"; "--fig16"; "--fig17"; "--robustness";
      "--ablation";
    ]

let test_fleet_help_names_flags () =
  check_bench_help " fleet"
    [ "--boards"; "--cap"; "--policy"; "--scheme"; "--seed"; "--jobs" ]

(* A misspelled flag is a usage error on every bench entry point, before
   any work starts. *)
let test_bench_misspelled_flag () =
  List.iter
    (fun args ->
      match run_exe bench_exe (args ^ " >/dev/null 2>&1") with
      | _, Unix.WEXITED c -> Alcotest.(check int) ("bench " ^ args) 2 c
      | _ -> Alcotest.failf "bench %s did not exit" args)
    [
      "--fgi9";
      "micro --jsn x";
      "fleet --bords 2";
      "sweep --pionts 2";
      "serve --sesions 2";
      "compare --tolerence 0.2 A B";
    ]

(* `bench micro` writes a document only under --json: run where a
   committed baseline would sit, it leaves the directory as it was. *)
let test_micro_writes_only_under_json () =
  let dir = Filename.temp_dir "bench-micro" "" in
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f -> Sys.remove (Filename.concat dir f))
        (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      (match run_exe ~dir bench_exe "micro --smoke gemm4" with
      | _, Unix.WEXITED 0 -> ()
      | _ -> Alcotest.fail "bench micro --smoke gemm4 failed");
      Alcotest.(check (list string)) "no file written" []
        (Array.to_list (Sys.readdir dir)))

(* A yukta.bench-micro/v1 document holding only what [bench compare]
   reads: the schema and each kernel's median. *)
let micro_doc ?(schema = "yukta.bench-micro/v1") kernels =
  Printf.sprintf {|{"schema": "%s", "kernels": [%s]}|} schema
    (String.concat ", "
       (List.map
          (fun (k, median) ->
            Printf.sprintf {|{"kernel": "%s", "median_s": %g}|} k median)
          kernels))

(* The CI perf gate reads three exit codes: 0 pass, 1 regression or
   missing kernel, 2 usage, IO or schema error. *)
let test_bench_compare_exit_codes () =
  let dir = Filename.temp_dir "bench-compare" "" in
  let docs =
    [
      ("base.json", micro_doc [ ("gemm4", 1e-6); ("eig32", 2e-5) ]);
      ("slower.json", micro_doc [ ("gemm4", 2e-6); ("eig32", 2e-5) ]);
      ("missing.json", micro_doc [ ("gemm4", 1e-6) ]);
      ( "schema.json",
        micro_doc ~schema:"yukta.bench/v1" [ ("gemm4", 1e-6); ("eig32", 2e-5) ]
      );
    ]
  in
  let path name = Filename.quote (Filename.concat dir name) in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun (name, _) -> Sys.remove (Filename.concat dir name)) docs;
      Sys.rmdir dir)
    (fun () ->
      List.iter
        (fun (name, text) ->
          Out_channel.with_open_text (Filename.concat dir name) (fun oc ->
              output_string oc text))
        docs;
      let base = path "base.json" in
      List.iter
        (fun (what, args, code) ->
          match run_exe bench_exe ("compare " ^ args ^ " 2>/dev/null") with
          | _, Unix.WEXITED c -> Alcotest.(check int) what code c
          | _ -> Alcotest.failf "bench compare (%s) did not exit" what)
        [
          ("identical documents pass", base ^ " " ^ base, 0);
          ("a kernel 2x slower fails", base ^ " " ^ path "slower.json", 1);
          ("a missing kernel fails", base ^ " " ^ path "missing.json", 1);
          ("a wrong schema is an error", base ^ " " ^ path "schema.json", 2);
          ( "a negative tolerance is an error",
            "--tolerance -1 " ^ base ^ " " ^ base,
            2 );
          ("one positional argument is an error", base, 2);
        ])

let () =
  Alcotest.run "cli"
    [
      ( "help",
        [
          Alcotest.test_case "every subcommand listed" `Quick
            test_every_subcommand_in_help;
          Alcotest.test_case "subcommand count" `Quick
            test_subcommand_count;
        ] );
      ( "run",
        [
          Alcotest.test_case "-j1/-j2 stdout identical" `Quick
            test_run_jobs_identical;
          Alcotest.test_case "unknown app named" `Quick test_unknown_app_named;
          Alcotest.test_case "bad values named" `Quick test_bad_values_named;
          Alcotest.test_case "unwritable output named" `Quick
            test_unwritable_output_named;
        ] );
      ( "bench",
        [
          Alcotest.test_case "compare exit codes" `Quick
            test_bench_compare_exit_codes;
          Alcotest.test_case "misspelled flag exits 2" `Quick
            test_bench_misspelled_flag;
          Alcotest.test_case "micro writes only under --json" `Quick
            test_micro_writes_only_under_json;
          Alcotest.test_case "--help names every figure flag" `Quick
            test_bench_help_names_figures;
          Alcotest.test_case "fleet --help names its flags" `Quick
            test_fleet_help_names_flags;
        ] );
    ]
