(* Lists every value a library interface exports that no code outside
   its own module reaches, and every optional parameter that programs
   pass fewer than two values.

     exports.exe EXPORTS_OUT KNOBS_OUT LIB_DIR CALLER_DIR...

   Reads the compiler's typed trees after `dune build @check`: the
   exports are the [val]s of every [.cmti] under LIB_DIR, those of
   nested module signatures included, and a caller is any identifier
   in a [.cmt] under LIB_DIR or a CALLER_DIR that resolves to one of
   them from another compilation unit. The two are matched by the
   declaration's unique id, so a local module alias, an [open] or the
   library wrapper leaves the match intact. Writes one
   [Library.Module.value] per unreached export, sorted, to EXPORTS_OUT;
   test/exports.expected holds the ones kept as seams (DESIGN.md §15).

   The knobs are the optional parameters of those [val]s. Each call
   site in a [.cmt] under LIB_DIR or a CALLER_DIR, its own module
   included, gives each of the callee's optional parameters one value:
   an omitted argument is the default, a literal is itself, and
   anything else varies. A caller's own optional parameter passed on
   ([?x], or [~x] for one with a default) varies, unless the caller's
   parameter is itself a knob: then it passes on the caller's values,
   and passed to the caller itself it passes nothing. Knobs are found
   again until none is added, so making one a constant can expose the
   parameter it fed. Writes one [Library.Module.value ?label] per
   parameter with fewer than two values, sorted, to KNOBS_OUT;
   test/knobs.expected holds the seams (DESIGN.md §15a). *)

open Typedtree

let rec files_under dir =
  Sys.readdir dir |> Array.to_list
  |> List.concat_map (fun name ->
         let path = Filename.concat dir name in
         if Sys.is_directory path then files_under path else [ path ])

let unit_path (cmt : Cmt_format.cmt_infos) =
  Str.global_replace (Str.regexp_string "__") "." cmt.cmt_modname

(* Every [val] of an interface, nested module signatures included, as
   (id, path, type). *)
let rec sig_values prefix (items : signature_item list) =
  List.concat_map
    (fun (item : signature_item) ->
      match item.sig_desc with
      | Tsig_value v ->
          let vd = v.val_val in
          [ (vd.val_uid, prefix ^ "." ^ v.val_name.txt, vd.val_type) ]
      | Tsig_module
          {
            md_name = { txt = Some m; _ };
            md_type = { mty_desc = Tmty_signature s; _ };
            _;
          } ->
          sig_values (prefix ^ "." ^ m) s.sig_items
      | _ -> [])
    items

(* Ids of the values one implementation names from other units. Ids are
   numbered per compilation, so an id of the unit's own is skipped: it
   could coincide with one its interface declares. *)
let references (cmt : Cmt_format.cmt_infos) reached =
  let note (vd : Types.value_description) =
    match vd.val_uid with
    | Item { comp_unit; _ } when comp_unit <> cmt.cmt_modname ->
        Hashtbl.replace reached vd.val_uid ()
    | _ -> ()
  in
  let expr (it : Tast_iterator.iterator) (e : expression) =
    (match e.exp_desc with Texp_ident (_, _, vd) -> note vd | _ -> ());
    Tast_iterator.default_iterator.expr it e
  in
  match cmt.cmt_annots with
  | Implementation s ->
      let it = { Tast_iterator.default_iterator with expr } in
      it.structure it s
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Knobs                                                               *)
(* ------------------------------------------------------------------ *)

let knob path label = path ^ " ?" ^ label

let rec optional_labels ty =
  match Types.get_desc ty with
  | Tarrow (Optional l, _, ret, _) -> l :: optional_labels ret
  | Tarrow (_, _, ret, _) | Tpoly (ret, _) -> optional_labels ret
  | _ -> []

(* The value of a literal argument, or [None] for any other expression. *)
let rec literal (e : expression) =
  let all es =
    let vs = List.filter_map literal es in
    if List.length vs = List.length es then Some (String.concat "," vs)
    else None
  in
  match e.exp_desc with
  | Texp_constant (Const_float f) ->
      Some (Printf.sprintf "%h" (float_of_string f))
  | Texp_constant (Const_int n) -> Some (string_of_int n)
  | Texp_constant (Const_string (s, _, _)) -> Some (Printf.sprintf "%S" s)
  | Texp_constant _ -> None
  | Texp_construct (_, cd, args) ->
      Option.map (fun a -> cd.cstr_name ^ "(" ^ a ^ ")") (all args)
  | Texp_tuple es -> Option.map (fun a -> "(" ^ a ^ ")") (all es)
  | Texp_array es -> Option.map (fun a -> "[|" ^ a ^ "|]") (all es)
  | _ -> None

(* What one call site passes one optional parameter. *)
type arg =
  | Omitted
  | Value of string
  | Forward of string * bool (* The caller's knob; passed as [?x]. *)
  | Varies

(* The optional parameters at the head of a function, as (label, the
   identifier that stands for it in the body, its value when omitted,
   whether that identifier is the option itself). A default is
   desugared into a [#default] let that matches on the option. *)
let rec parameters (e : expression) =
  match e.exp_desc with
  | Texp_function { arg_label; cases = [ c ]; _ } -> (
      let default (a : attribute) = a.attr_name.txt = "#default" in
      match (arg_label, c.c_lhs.pat_desc, c.c_rhs.exp_desc) with
      | ( Optional l,
          _,
          Texp_let
            ( _,
              [
                {
                  vb_pat = { pat_desc = Tpat_var (id, _); _ };
                  vb_expr = { exp_desc = Texp_match (_, cases, _); _ };
                  _;
                };
              ],
              body ) )
        when List.exists default c.c_rhs.exp_attributes ->
          let none = List.nth cases (List.length cases - 1) in
          let omitted = Option.value (literal none.c_rhs) ~default:"default" in
          (l, id, omitted, false) :: parameters body
      | Optional l, Tpat_var (id, _), _ ->
          (l, id, "None", true) :: parameters c.c_rhs
      | _ -> parameters c.c_rhs)
  | _ -> []

(* The top-level and nested-module bindings of an implementation, by
   path. *)
let rec bindings prefix (s : structure) =
  let rec structure_of (me : module_expr) =
    match me.mod_desc with
    | Tmod_structure s -> Some s
    | Tmod_constraint (me, _, _, _) -> structure_of me
    | _ -> None
  in
  List.concat_map
    (fun (item : structure_item) ->
      match item.str_desc with
      | Tstr_value (_, vbs) ->
          List.filter_map
            (fun vb ->
              match vb.vb_pat.pat_desc with
              | Tpat_var (_, n) -> Some (prefix ^ "." ^ n.txt, vb.vb_expr)
              | _ -> None)
            vbs
      | Tstr_module { mb_name = { txt = Some m; _ }; mb_expr; _ } -> (
          match structure_of mb_expr with
          | Some s -> bindings (prefix ^ "." ^ m) s
          | None -> [])
      | _ -> [])
    s.str_items

(* The optional arguments one implementation passes to interface values
   ([paths] maps their ids to their paths), as (knob, argument). Records
   the omitted value of each knob the implementation defines in
   [omitted]. *)
let calls ~paths omitted (cmt : Cmt_format.cmt_infos) =
  match cmt.cmt_annots with
  | Implementation s ->
      (* A call from inside the unit names its implementation, whose ids
         are numbered apart from the interface's. *)
      let own = Hashtbl.create 64 in
      List.iter
        (fun ((impl : Types.value_description), (intf : Types.value_description)) ->
          Option.iter (Hashtbl.replace own impl.val_uid)
            (Hashtbl.find_opt paths intf.val_uid))
        cmt.cmt_value_dependencies;
      let callee (uid : Shape.Uid.t) =
        match uid with
        | Item { comp_unit; _ } when comp_unit = cmt.cmt_modname ->
            Hashtbl.find_opt own uid
        | _ -> Hashtbl.find_opt paths uid
      in
      let declared = Hashtbl.create 64 in
      Hashtbl.iter (fun _ path -> Hashtbl.replace declared path ()) own;
      let forwards = Hashtbl.create 64 in
      List.iter
        (fun (path, e) ->
          if Hashtbl.mem declared path then
            List.iter
              (fun (l, id, value, raw) ->
                Hashtbl.replace omitted (knob path l) value;
                Hashtbl.replace forwards id (path, knob path l, raw))
              (parameters e))
        (bindings (unit_path cmt) s);
      let forwarded (e : expression) =
        match e.exp_desc with
        | Texp_ident (Pident id, _, _) -> Hashtbl.find_opt forwards id
        | _ -> None
      in
      (* [None] when a function passes its own parameter to itself. *)
      let classify callee (a : expression) =
        let pass (caller, k, raw) =
          if caller = callee then None else Some (Forward (k, raw))
        in
        match a.exp_desc with
        | Texp_construct (_, { cstr_name = "None"; _ }, []) -> Some Omitted
        | Texp_construct (_, { cstr_name = "Some"; _ }, [ v ]) -> (
            match (forwarded v, literal v) with
            | Some ((_, _, false) as f), _ -> pass f
            | _, Some v -> Some (Value v)
            | _ -> Some Varies)
        | _ -> (
            match forwarded a with
            | Some ((_, _, true) as f) -> pass f
            | _ -> Some Varies)
      in
      let found = ref [] in
      let expr (it : Tast_iterator.iterator) (e : expression) =
        (match e.exp_desc with
        | Texp_apply ({ exp_desc = Texp_ident (_, _, vd); _ }, args) ->
            Option.iter
              (fun path ->
                List.iter
                  (function
                    | Asttypes.Optional l, Some a ->
                        Option.iter
                          (fun c -> found := (knob path l, c) :: !found)
                          (classify path a)
                    | _ -> ())
                  args)
              (callee vd.val_uid)
        | _ -> ());
        Tast_iterator.default_iterator.expr it e
      in
      let it = { Tast_iterator.default_iterator with expr } in
      it.structure it s;
      !found
  | _ -> []

(* The knobs with fewer than two values, given those already [known]
   to: a knob's forwarded parameter passes on its values only once it is
   known, so the search repeats until no knob is added. *)
let rec flagged ?(known = []) knobs calls omitted =
  let omission k =
    Option.value (Hashtbl.find_opt omitted k) ~default:"default"
  in
  (* [None] varies; [Some vs] is the set of values a knob takes. *)
  let taken = Hashtbl.create 256 in
  let rec values k =
    match Hashtbl.find_opt taken k with
    | Some vs -> vs
    | None ->
        Hashtbl.replace taken k None;
        let add acc v =
          Option.map (fun vs -> if List.mem v vs then vs else v :: vs) acc
        in
        let pass acc (k', a) =
          if k' <> k then acc
          else
            match a with
            | Omitted -> add acc (omission k)
            | Value v -> add acc v
            | Forward (g, raw) when List.mem g known ->
                List.fold_left
                  (fun acc v ->
                    add acc (if raw && v = omission g then omission k else v))
                  acc
                  (Option.value (values g) ~default:[])
            | Forward _ | Varies -> None
        in
        let vs = List.fold_left pass (Some []) calls in
        Hashtbl.replace taken k vs;
        vs
  in
  let few k =
    match values k with Some vs -> List.length vs < 2 | None -> false
  in
  let found = List.filter few knobs in
  if List.length found = List.length known then found
  else flagged ~known:found knobs calls omitted

let () =
  match Array.to_list Sys.argv with
  | _ :: exports_out :: knobs_out :: lib :: callers ->
      let cmts =
        List.concat_map files_under (lib :: callers)
        |> List.filter (fun f -> Filename.check_suffix f ".cmt")
        |> List.map Cmt_format.read_cmt
      in
      let values =
        files_under lib
        |> List.filter (fun f -> Filename.check_suffix f ".cmti")
        |> List.concat_map (fun f ->
               let cmt = Cmt_format.read_cmt f in
               match cmt.cmt_annots with
               | Interface s ->
                   sig_values (unit_path cmt) s.sig_items
               | _ -> [])
      in
      let write path lines =
        Out_channel.with_open_text path (fun oc ->
            List.iter
              (fun l -> output_string oc (l ^ "\n"))
              (List.sort compare lines))
      in
      let reached = Hashtbl.create 4096 in
      List.iter (fun cmt -> references cmt reached) cmts;
      write exports_out
        (List.filter_map
           (fun (uid, path, _) ->
             if not (Hashtbl.mem reached uid) then Some path else None)
           values);
      let paths = Hashtbl.create 1024 in
      List.iter (fun (uid, path, _) -> Hashtbl.replace paths uid path) values;
      let omitted = Hashtbl.create 256 in
      let calls = List.concat_map (calls ~paths omitted) cmts in
      let knobs =
        List.concat_map
          (fun (_, path, ty) -> List.map (knob path) (optional_labels ty))
          values
      in
      write knobs_out (flagged knobs calls omitted)
  | _ ->
      prerr_endline
        "usage: exports.exe EXPORTS_OUT KNOBS_OUT LIB_DIR CALLER_DIR...";
      exit 2
