(* Lists every value a library interface exports that no code outside
   its own module reaches.

     exports.exe LIB_DIR CALLER_DIR...

   Reads the compiler's typed trees after `dune build @check`: the
   exports are the top-level [val]s of every [.cmti] under LIB_DIR, and
   a caller is any identifier in a [.cmt] under LIB_DIR or a CALLER_DIR
   that resolves to one of them from another compilation unit. The two
   are matched by the declaration's unique id, so a local module alias,
   an [open] or the library wrapper leaves the match intact. Prints one
   [Library.Module.value] per unreached export, sorted;
   test/exports.expected holds the ones kept as seams (DESIGN.md §15). *)

let rec files_under dir =
  Sys.readdir dir |> Array.to_list
  |> List.concat_map (fun name ->
         let path = Filename.concat dir name in
         if Sys.is_directory path then files_under path else [ path ])

let exports path =
  let cmt = Cmt_format.read_cmt path in
  let unit_path = Str.global_replace (Str.regexp_string "__") "." cmt.cmt_modname in
  match cmt.cmt_annots with
  | Interface s ->
      List.filter_map
        (fun (item : Typedtree.signature_item) ->
          match item.sig_desc with
          | Tsig_value v ->
              Some (v.val_val.val_uid, unit_path ^ "." ^ v.val_name.txt)
          | _ -> None)
        s.sig_items
  | _ -> []

(* Ids of the values one implementation names from other units. Ids are
   numbered per compilation, so an id of the unit's own is skipped: it
   could coincide with one its interface declares. *)
let references path reached =
  let cmt = Cmt_format.read_cmt path in
  let note (vd : Types.value_description) =
    match vd.val_uid with
    | Item { comp_unit; _ } when comp_unit <> cmt.cmt_modname ->
        Hashtbl.replace reached vd.val_uid ()
    | _ -> ()
  in
  let expr (it : Tast_iterator.iterator) (e : Typedtree.expression) =
    (match e.exp_desc with Texp_ident (_, _, vd) -> note vd | _ -> ());
    Tast_iterator.default_iterator.expr it e
  in
  match cmt.cmt_annots with
  | Implementation s ->
      let it = { Tast_iterator.default_iterator with expr } in
      it.structure it s
  | _ -> ()

let () =
  match Array.to_list Sys.argv with
  | _ :: lib :: callers ->
      let all = List.concat_map files_under (lib :: callers) in
      let reached = Hashtbl.create 4096 in
      List.iter
        (fun f -> if Filename.check_suffix f ".cmt" then references f reached)
        all;
      files_under lib
      |> List.filter (fun f -> Filename.check_suffix f ".cmti")
      |> List.concat_map exports
      |> List.filter (fun (uid, _) -> not (Hashtbl.mem reached uid))
      |> List.map snd |> List.sort compare |> List.iter print_endline
  | _ ->
      prerr_endline "usage: exports.exe LIB_DIR CALLER_DIR...";
      exit 2
