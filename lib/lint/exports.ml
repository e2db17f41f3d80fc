(* The unused-export rule: a [val] in an [.mli] that no other compilation
   unit references. Exports come from the [.cmti] typedtrees; references
   from a walk over every structure item of every loaded [.cmt] (so
   [let () = ...] blocks and test registrations count), resolved through
   the call graph. A value that is exported but only used inside its own
   module should leave the interface; one used nowhere should go. *)

open Typedtree

type export = {
  x_key : string;  (** call-graph key of the implementing binding *)
  x_name : string;
  x_loc : Location.t;
  x_allows : string list;
}

(* Top-level [val]/[external] items of one interface. *)
let of_signature ~unit_name (sg : signature) =
  let file_allows = ref [] in
  List.filter_map
    (fun (si : signature_item) ->
      match si.sig_desc with
      | Tsig_value vd ->
          Some
            {
              x_key = unit_name ^ "." ^ vd.val_name.txt;
              x_name = vd.val_name.txt;
              x_loc = vd.val_loc;
              x_allows = Syntactic.attr_allows vd.val_attributes @ !file_allows;
            }
      | Tsig_attribute a ->
          file_allows := Syntactic.attr_allows [ a ] @ !file_allows;
          None
      | _ -> None)
    sg.sig_items

(* Keys of the definitions some other unit references. *)
let external_refs (cg : Callgraph.t) (units : Callgraph.unit_info list) =
  let used = Hashtbl.create 256 in
  List.iter
    (fun (u : Callgraph.unit_info) ->
      let expr (it : Tast_iterator.iterator) (e : expression) =
        (match e.exp_desc with
        | Texp_ident (p, _, _) -> (
            match Callgraph.resolve cg ~unit_name:u.u_name p with
            | Callgraph.Def d when not (String.equal d.d_unit u.u_name) ->
                Hashtbl.replace used d.d_key ()
            | _ -> ())
        | _ -> ());
        Tast_iterator.default_iterator.expr it e
      in
      let it = { Tast_iterator.default_iterator with expr } in
      it.structure it u.u_str)
    units;
  used

(* Only exports whose implementation was loaded are judged: a value the
   call graph cannot see (defined by [include], a pattern, a functor) is
   given the benefit of the doubt. *)
let findings (cg : Callgraph.t) units exports =
  let used = external_refs cg units in
  List.filter_map
    (fun x ->
      if
        Hashtbl.mem cg.Callgraph.defs x.x_key
        && (not (Hashtbl.mem used x.x_key))
        && not (List.exists (String.equal Rule.unused_export) x.x_allows)
      then
        Some
          (Finding.v ~rule:Rule.unused_export ~loc:x.x_loc
             (Printf.sprintf
                "%s is exported but no other compilation unit references it; drop it from the \
                 interface (or delete it if its own module does not use it either)"
                x.x_name))
      else None)
    exports
