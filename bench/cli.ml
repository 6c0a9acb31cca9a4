(* The argv idiom and the document I/O every bench entry point shares.

   Each entry point states its flags once, as a stdlib [Arg] spec list:
   the usage text and [--help] are generated from it, and any usage
   error (an unknown flag, a missing or malformed value, a value out of
   bounds, a stray argument) prints the usage and exits 2. One process
   runs one entry point, so the shared flags set process-global refs. *)

(* The running entry point ("bench", "bench fleet", ...): the prefix of
   every usage error. *)
let name = ref "bench"

(* A usage, IO or input error: the message on stderr, exit status 2. *)
let fail fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline (!name ^ ": " ^ msg);
      exit 2)
    fmt

(* [--smoke]: the CI-sized run. *)
let smoke = ref false

(* [-j N] / [--jobs N]: the size of the domain pool. *)
let jobs = ref 1

(* [--json OUT]: where the entry point's document goes. *)
let json = ref None

(* Refuses a flag's value from inside its spec: [Arg] turns this into a
   usage error naming the entry point. *)
let bad fmt = Printf.ksprintf (fun msg -> raise (Arg.Bad msg)) fmt

(* [flag N], an integer >= 1. *)
let count flag set doc =
  ( flag,
    Arg.Int
      (fun n ->
        if n < 1 then bad "%s expects an integer >= 1, got %d" flag n;
        set n),
    doc )

(* [flag X], a number > 0. *)
let positive flag set doc =
  ( flag,
    Arg.Float
      (fun x ->
        if not (x > 0.0) then bad "%s expects a positive number, got %g" flag x;
        set x),
    doc )

let smoke_spec doc = ("--smoke", Arg.Set smoke, doc)

let jobs_specs =
  let doc = "N Run on a pool of N domains (default 1); same output at any N" in
  [ count "-j" (( := ) jobs) doc; count "--jobs" (( := ) jobs) doc ]

let json_spec =
  ( "--json",
    Arg.String (fun path -> json := Some path),
    "OUT Write the JSON document to OUT" )

(* [--scheme S], a name the scheme registry resolves. *)
let scheme_spec r doc =
  ( "--scheme",
    Arg.String
      (fun s ->
        if Yukta.Schemes.find s = None then
          bad "unknown scheme %S (see yukta_cli schemes)" s;
        r := s),
    doc )

(* Parses [args] (argv after the entry point's name) against [specs];
   an argument that is not a flag goes to [anon], by default an error. *)
let parse ?(anon = bad "unexpected argument %S") cmd usage specs args =
  name := cmd;
  match
    Arg.parse_argv ~current:(ref 0)
      (Array.of_list (cmd :: args))
      (Arg.align specs) anon usage
  with
  | () -> ()
  | exception Arg.Help text ->
    print_string text;
    exit 0
  | exception Arg.Bad text ->
    prerr_string text;
    exit 2

(* Writes [doc] to the [--json] path, when one was given; an unwritable
   path is an IO error. *)
let write_json doc =
  Option.iter
    (fun path ->
      match
        Out_channel.with_open_text path (fun oc ->
            output_string oc (Obs.Json.to_string ~pretty:true doc);
            output_char oc '\n')
      with
      | exception Sys_error msg -> fail "%s" msg
      | () -> Printf.printf "\nwrote %s\n%!" path)
    !json

(* The document at [path]; an unreadable or malformed file is an input
   error. *)
let read_json path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> fail "%s" msg
  | text -> (
    match Obs.Json.of_string text with
    | doc -> doc
    | exception Obs.Json.Parse_error msg -> fail "%s: %s" path msg)
