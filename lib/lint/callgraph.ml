(* Whole-program call graph over the [.cmt] typedtrees dune emits.

   Nodes are top-level value bindings (including bindings inside plain
   [module X = struct ... end] nesting and [external] declarations),
   keyed by "<compilation unit>.<inner path>", e.g.
   "Bft_core__Replica.on_request" or "Bad_transitive_nondet.Jitter.next".
   Reference resolution handles the three path shapes dune's module
   layout produces:

   - same-unit references: [Pident] with the binder's own stamp, matched
     exactly with [Ident.same] semantics (so local shadowing can never
     alias a top-level binding), and [Pdot] into sibling nested modules;
   - wrapped-library aliases: [Bft_core.Message.encode] and
     [Bft_core__.Message.encode] both normalize to the real unit
     [Bft_core__Message.encode]; a path through a top-level module alias
     ([module Engine = Bft_sim.Engine]) is expanded to the aliased path
     first;
   - everything else is [External] (classified by the effect tables) when
     the path head is a persistent (compilation-unit) ident, or [Local]
     (a function parameter, let-bound closure, or functor innard — the
     documented soundness caveats) otherwise.

   Functors and module applications are out of scope: their bodies are
   not collected, and references through [Papply] resolve to [Local]. *)

open Typedtree

type unit_info = {
  u_name : string;  (** compilation-unit module name, e.g. ["Bft_core__Replica"] *)
  u_file : string;  (** source path recorded in findings *)
  u_str : structure;
}

type def = {
  d_key : string;  (** "<unit>.<inner path>" *)
  d_unit : string;
  d_disp : string;  (** display name: inner path, e.g. ["Jitter.next"] *)
  d_loc : Location.t;
  d_file : string;
  d_allows : string list;  (** [@lint.allow] ids in scope at the binding *)
  d_body : expression option;  (** [None] for [external] declarations *)
  d_prim : string list;  (** primitive names for [external], [[]] otherwise *)
  d_pure : bool;  (** [external] carrying a [@@lint.pure "<reason>"] declaration *)
}

type t = {
  defs : (string, def) Hashtbl.t;
  mutable order : string list;  (** def keys, collection (= source) order *)
  by_ident : (string, string) Hashtbl.t;  (** "<unit>/<stamped ident>" -> key *)
  aliases : (string, Path.t) Hashtbl.t;  (** "<unit>/<stamped module ident>" -> aliased path *)
}

let ident_key ~unit_name id = unit_name ^ "/" ^ Ident.unique_name id

let add_def t ~(u : unit_info) ~prefix ~id ~name ~loc ~allows ~body ~prim ~pure =
  let disp = prefix ^ name in
  let key = u.u_name ^ "." ^ disp in
  let d =
    {
      d_key = key;
      d_unit = u.u_name;
      d_disp = disp;
      d_loc = loc;
      d_file = u.u_file;
      d_allows = allows;
      d_body = body;
      d_prim = prim;
      d_pure = pure;
    }
  in
  if not (Hashtbl.mem t.defs key) then begin
    Hashtbl.replace t.defs key d;
    t.order <- key :: t.order
  end;
  Hashtbl.replace t.by_ident (ident_key ~unit_name:u.u_name id) key

let collect_unit t (u : unit_info) =
  (* [@@@lint.allow] floating attributes accumulate over the rest of the
     structure, mirroring the syntactic pass. *)
  let file_allows = ref [] in
  let rec item ~prefix (si : structure_item) =
    match si.str_desc with
    | Tstr_value (_, vbs) -> List.iter (vb ~prefix) vbs
    | Tstr_module mb -> module_binding ~prefix mb
    | Tstr_recmodule mbs -> List.iter (module_binding ~prefix) mbs
    | Tstr_primitive vd ->
        add_def t ~u ~prefix ~id:vd.val_id ~name:vd.val_name.txt ~loc:vd.val_loc
          ~allows:(Syntactic.attr_allows vd.val_attributes @ !file_allows)
          ~body:None ~prim:vd.val_prim ~pure:(Syntactic.attr_pure vd.val_attributes)
    | Tstr_attribute a -> file_allows := Syntactic.attr_allows [ a ] @ !file_allows
    | _ -> ()
  and module_binding ~prefix mb =
    match (mb.mb_name.txt, mb.mb_id) with
    | Some name, Some id -> mod_expr ~prefix:(prefix ^ name ^ ".") ~id mb.mb_expr
    | _ -> ()
  and mod_expr ~prefix ~id me =
    match me.mod_desc with
    | Tmod_structure s -> List.iter (item ~prefix) s.str_items
    | Tmod_constraint (me', _, _, _) -> mod_expr ~prefix ~id me'
    | Tmod_ident (p, _) -> Hashtbl.replace t.aliases (ident_key ~unit_name:u.u_name id) p
    | _ -> ()  (* functors / applications: out of scope *)
  and vb ~prefix b =
    match b.vb_pat.pat_desc with
    | Tpat_var (id, _) ->
        add_def t ~u ~prefix ~id ~name:(Ident.name id) ~loc:b.vb_loc
          ~allows:(Syntactic.attr_allows b.vb_attributes @ !file_allows)
          ~body:(Some b.vb_expr) ~prim:[] ~pure:false
    | _ -> ()
  in
  List.iter (item ~prefix:"") u.u_str.str_items

let build units =
  let t =
    {
      defs = Hashtbl.create 256;
      order = [];
      by_ident = Hashtbl.create 256;
      aliases = Hashtbl.create 64;
    }
  in
  List.iter (collect_unit t) units;
  t.order <- List.rev t.order;
  t

(* --- reference resolution ------------------------------------------- *)

type target =
  | Def of def
  | External of string list  (** flattened path components, head first *)
  | Local  (** parameter / let-bound local / functor-dependent *)

(* "Bft_core" + "Message" and "Bft_core__" + "Message" both mean the real
   unit "Bft_core__Message". *)
let join_units a b = if String.ends_with ~suffix:"__" a then a ^ b else a ^ "__" ^ b

(* Rewrite a module path through the unit's top-level aliases. *)
let rec unalias t ~unit_name path =
  match path with
  | Path.Pident id -> (
      match Hashtbl.find_opt t.aliases (ident_key ~unit_name id) with
      | Some p -> unalias t ~unit_name p
      | None -> path)
  | Path.Pdot (p, s) -> Path.Pdot (unalias t ~unit_name p, s)
  | _ -> path

let resolve t ~unit_name path =
  match path with
  | Path.Pident id -> (
      match Hashtbl.find_opt t.by_ident (ident_key ~unit_name id) with
      | Some key -> Def (Hashtbl.find t.defs key)
      | None -> if Ident.persistent id then External [ Ident.name id ] else Local)
  | _ -> (
      match Path.flatten (unalias t ~unit_name path) with
      | `Contains_apply -> Local
      | `Ok (head_id, rest) -> (
          let head = Ident.name head_id in
          let comps = head :: rest in
          let candidates =
            (* same-unit nested module first, then the literal unit path,
               then the wrapped-library alias normalization *)
            (unit_name ^ "." ^ String.concat "." comps)
            :: String.concat "." comps
            ::
            (match rest with
            | second :: more -> [ String.concat "." (join_units head second :: more) ]
            | [] -> [])
          in
          match List.find_map (Hashtbl.find_opt t.defs) candidates with
          | Some d -> Def d
          | None -> if Ident.persistent head_id then External comps else Local))

(* The unit name a wrapped library exposes, e.g. "Replica" for
   "Bft_core__Replica" and "Bftctl" for "Dune__exe__Bftctl". *)
let unit_base u =
  match Bft_util.Strutil.contains_sub u "__" with
  | false -> u
  | true ->
      let n = String.length u in
      let rec last_sep i best =
        if i + 2 > n then best
        else if Char.equal u.[i] '_' && Char.equal u.[i + 1] '_' then last_sep (i + 1) (i + 2)
        else last_sep (i + 1) best
      in
      let s = last_sep 0 0 in
      if s >= n then u else String.sub u s (n - s)
