(* Help sync: every registered yukta_cli subcommand must appear in the
   top-level --help, so the CLI's own documentation can never silently
   fall behind the command group; and `run` prints the same bytes at any
   -j (the dune rule makes the built executable a test dependency). *)

let subcommands =
  (* The full command group of bin/yukta_cli.ml; adding a subcommand
     there without updating this list fails the count check below. *)
  [
    "apps"; "schemes"; "run"; "csv"; "trace"; "design"; "faults"; "fleet";
    "cache"; "serve"; "sweep";
  ]

let read_all ic =
  let b = Buffer.create 4096 in
  (try
     while true do
       Buffer.add_channel b ic 1
     done
   with End_of_file -> ());
  Buffer.contents b

(* The CLI sits at ../bin/yukta_cli.exe from this test's own directory
   in _build (declared as a dune dep), whatever the working directory. *)
let exe =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/yukta_cli.exe"

(* [args] is a shell fragment; the CLI's stdout and exit status. *)
let run_cli args =
  if not (Sys.file_exists exe) then
    Alcotest.failf "yukta_cli not found at %s" exe;
  let ic = Unix.open_process_in (Filename.quote exe ^ " " ^ args) in
  let out = read_all ic in
  (out, Unix.close_process_in ic)

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

let test_fleet_help_documents_flags () =
  let out = cli "fleet --help=plain" in
  List.iter
    (fun flag ->
      Alcotest.(check bool)
        (Printf.sprintf "fleet --help documents %s" flag)
        true (contains out flag))
    [ "--boards"; "--cap"; "--policy"; "--seed"; "--jobs" ]

let () =
  Alcotest.run "cli"
    [
      ( "help",
        [
          Alcotest.test_case "every subcommand listed" `Quick
            test_every_subcommand_in_help;
          Alcotest.test_case "subcommand count" `Quick
            test_subcommand_count;
          Alcotest.test_case "fleet flags documented" `Quick
            test_fleet_help_documents_flags;
        ] );
      ( "run",
        [
          Alcotest.test_case "-j1/-j2 stdout identical" `Quick
            test_run_jobs_identical;
          Alcotest.test_case "unknown app named" `Quick test_unknown_app_named;
        ] );
    ]
