(* bench compare: diff two yukta.bench-micro/v1 documents and render a
   verdict — the CI perf-regression gate.

     dune exec bench/main.exe -- compare BASELINE CANDIDATE
     dune exec bench/main.exe -- compare --tolerance 0.25 --json verdict.json a b

   Per kernel, the candidate/baseline ratio of per-invocation medians is
   classified against the tolerance band: within it "ok", above it
   "regression", below it "improved". Kernels present in the baseline
   but absent from the candidate are "missing" (a gate must not pass
   because a kernel silently stopped running); kernels only in the
   candidate are "new". Exit codes: 0 pass, 1 regression or missing
   kernel, 2 usage/IO/schema errors; --help (or -h) exits 0. Verdict
   schema (yukta.bench-compare/v1) in BENCHMARKS.md. *)

let schema = "yukta.bench-micro/v1"

let verdict_schema = "yukta.bench-compare/v1"

type case = {
  kernel : string;
  baseline_s : float option; (* Median per invocation. *)
  candidate_s : float option;
  ratio : float option;
  status : string; (* ok | regression | improved | missing | new *)
}

(* Kernel -> median list from a bench-micro document, in document order. *)
let load path =
  let json = Cli.read_json path in
  (match Option.bind (Obs.Json.member "schema" json) Obs.Json.to_string_opt with
  | Some s when s = schema -> ()
  | Some s -> Cli.fail "%s: schema %S, expected %S" path s schema
  | None -> Cli.fail "%s: missing \"schema\" field" path);
  let kernels =
    match Option.bind (Obs.Json.member "kernels" json) Obs.Json.to_list_opt with
    | Some l -> l
    | None -> Cli.fail "%s: missing \"kernels\" list" path
  in
  List.filter_map
    (fun k ->
      match
        ( Option.bind (Obs.Json.member "kernel" k) Obs.Json.to_string_opt,
          Option.bind (Obs.Json.member "median_s" k) Obs.Json.to_float_opt )
      with
      | Some name, Some median -> Some (name, median)
      | _ -> Cli.fail "%s: kernel entry lacks \"kernel\"/\"median_s\"" path)
    kernels

let classify ~tolerance baseline candidate =
  let base_cases =
    List.map
      (fun (kernel, base) ->
        match List.assoc_opt kernel candidate with
        | None ->
          {
            kernel;
            baseline_s = Some base;
            candidate_s = None;
            ratio = None;
            status = "missing";
          }
        | Some cand ->
          let ratio = cand /. base in
          let status =
            if ratio > 1.0 +. tolerance then "regression"
            else if ratio < 1.0 -. tolerance then "improved"
            else "ok"
          in
          {
            kernel;
            baseline_s = Some base;
            candidate_s = Some cand;
            ratio = Some ratio;
            status;
          })
      baseline
  in
  let new_cases =
    List.filter_map
      (fun (kernel, cand) ->
        if List.mem_assoc kernel baseline then None
        else
          Some
            {
              kernel;
              baseline_s = None;
              candidate_s = Some cand;
              ratio = None;
              status = "new";
            })
      candidate
  in
  base_cases @ new_cases

let float_opt = function
  | Some f -> Obs.Json.Float f
  | None -> Obs.Json.Null

let case_json c =
  Obs.Json.Obj
    [
      ("kernel", Obs.Json.String c.kernel);
      ("baseline_median_s", float_opt c.baseline_s);
      ("candidate_median_s", float_opt c.candidate_s);
      ("ratio", float_opt c.ratio);
      ("status", Obs.Json.String c.status);
    ]

let count status cases =
  List.length (List.filter (fun c -> c.status = status) cases)

let pretty_time = Option.fold ~none:"-" ~some:Micro.pretty_time

let main args =
  let tolerance = ref 0.25 in
  let positional = ref [] in
  Cli.parse "bench compare"
    "usage: bench compare [--tolerance T] [--json OUT] BASELINE CANDIDATE"
    ~anon:(fun a -> positional := a :: !positional)
    [
      Cli.positive "--tolerance" (( := ) tolerance)
        "T Tolerance band on the median ratio (default 0.25)";
      Cli.json_spec;
    ]
    (List.map (fun a -> if a = "-h" then "--help" else a) args);
  let base_path, cand_path =
    match List.rev !positional with
    | [ b; c ] -> (b, c)
    | _ -> Cli.fail "expects two documents, BASELINE and CANDIDATE"
  in
  let cases =
    classify ~tolerance:!tolerance (load base_path) (load cand_path)
  in
  let regressions = count "regression" cases in
  let missing = count "missing" cases in
  let pass = regressions = 0 && missing = 0 in
  Printf.printf "%-20s %10s %10s %8s  %s\n" "kernel" "baseline" "candidate"
    "ratio" "status";
  List.iter
    (fun c ->
      Printf.printf "%-20s %10s %10s %8s  %s\n" c.kernel
        (pretty_time c.baseline_s)
        (pretty_time c.candidate_s)
        (match c.ratio with
        | Some r -> Printf.sprintf "%.3f" r
        | None -> "-")
        c.status)
    cases;
  Printf.printf "\n%s: %d kernels, %d regression(s), %d missing, %d new \
                 (tolerance %.0f%%)\n"
    (if pass then "PASS" else "FAIL")
    (List.length cases) regressions missing (count "new" cases)
    (100.0 *. !tolerance);
  Cli.write_json
    (Obs.Json.Obj
       [
         ("schema", Obs.Json.String verdict_schema);
         ("baseline", Obs.Json.String base_path);
         ("candidate", Obs.Json.String cand_path);
         ("tolerance", Obs.Json.Float !tolerance);
         ("pass", Obs.Json.Bool pass);
         ("regressions", Obs.Json.Int regressions);
         ("missing", Obs.Json.Int missing);
         ("new", Obs.Json.Int (count "new" cases));
         ("kernels", Obs.Json.List (List.map case_json cases));
       ]);
  if pass then 0 else 1
