(* Parsetree-level rules: determinism bans, catch-all [try] handlers,
   unsafe-op containment, and Hashtbl iteration feeding encoders. These
   need no type information, so they run on a plain [Parse.implementation]
   of each source file. *)

open Parsetree

type ctx = {
  mutable findings : Finding.t list;
  mutable allows : string list;  (* active [@lint.allow] ids, innermost first *)
  mutable bindings : string list;  (* enclosing let-binding names, innermost first *)
  mutable sorted : bool;  (* true inside an argument of List.sort* *)
  protocol_core : bool;  (* the file carries [@@@lint.protocol_core] *)
}

let attr_allows (attrs : attributes) =
  List.concat_map
    (fun a ->
      if String.equal a.attr_name.txt "lint.allow" then
        match a.attr_payload with
        | PStr
            [
              {
                pstr_desc =
                  Pstr_eval ({ pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ }, _);
                _;
              };
            ] ->
            List.filter (fun id -> String.length id > 0) (String.split_on_char ' ' s)
        | _ -> []
      else [])
    attrs

(* [@@lint.pure "<reason>"] on an [external]: the C stub is declared free
   of every tracked effect. Only a non-empty reason counts. *)
let attr_pure (attrs : attributes) =
  List.exists
    (fun a ->
      String.equal a.attr_name.txt "lint.pure"
      &&
      match a.attr_payload with
      | PStr
          [
            {
              pstr_desc = Pstr_eval ({ pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ }, _);
              _;
            };
          ] ->
          String.length (String.trim s) > 0
      | _ -> false)
    attrs

let report ctx ~loc ~rule msg =
  if not (List.exists (String.equal rule) ctx.allows) then
    ctx.findings <- Finding.v ~rule ~loc msg :: ctx.findings

let is_unsafe_access m f =
  (String.equal m "Bytes" || String.equal m "Array" || String.equal m "String")
  && String.starts_with ~prefix:"unsafe_" f

(* Compiler primitives like "%caml_string_get16u" (trailing 'u' = unchecked). *)
let is_unsafe_prim p =
  (String.length p > 0 && String.ends_with ~suffix:"u" p && String.starts_with ~prefix:"%caml_" p)
  || Bft_util.Strutil.contains_sub p "unsafe"

let classify_ident flat =
  match flat with
  | "Unix" :: _ -> Some (Rule.unix, "Unix call in lib/; use the simulated clock and network")
  | [ "Sys"; ("time" | "cpu_time") ] ->
      Some (Rule.time, "wall-clock time in lib/; use Engine's virtual clock")
  | [ "Sys"; ("getenv" | "getenv_opt") ] ->
      Some (Rule.getenv, "environment lookup in lib/; thread settings through Config")
  | "Marshal" :: _ ->
      Some (Rule.marshal, "Marshal output is not a stable wire format; use Wire codecs")
  | [ "Hashtbl"; ("hash" | "seeded_hash" | "hash_param") ] ->
      Some (Rule.hashtbl_hash, "Hashtbl.hash is not a stable digest; use Sha256/Adhash")
  | [ "Random"; "self_init" ] | [ "Random"; "State"; "make_self_init" ] ->
      Some (Rule.random, "self-seeded randomness is unreplayable; seed Bft_util.Rng explicitly")
  | "Random" :: f :: _ when not (String.equal f "State") ->
      Some (Rule.random, "global Random state is shared and unseeded; use Bft_util.Rng")
  | ("Domain" | "Atomic" | "Mutex" | "Condition") :: _ ->
      Some
        ( Rule.domain_containment,
          "domain primitive; the simulator runs on one domain and no file is allowlisted for \
           parallelism" )
  | [ "Obj"; "magic" ] -> Some (Rule.unsafe_op, "Obj.magic defeats the type system")
  | ( "Bft_crypto" :: ("Auth" | "Hmac" | "Signature") :: f :: _
    | ("Auth" | "Hmac" | "Signature") :: f :: _ )
    when not (List.mem f [ "tag_size"; "size"; "create_registry"; "register" ]) ->
      Some (Rule.auth_owner, "authentication outside Seal; seal and open through Bft_core.Seal")
  | [ m; f ] when is_unsafe_access m f ->
      Some (Rule.unsafe_op, "bounds-unchecked access outside the crypto/Paged_image allowlist")
  | _ -> None

(* [open Unix], [module U = Unix], [open Random] ... *)
let classify_module flat =
  match flat with
  | "Unix" :: _ -> Some (Rule.unix, "Unix brought into scope in lib/")
  | "Marshal" :: _ -> Some (Rule.marshal, "Marshal brought into scope in lib/")
  | [ "Random" ] -> Some (Rule.random, "global Random brought into scope in lib/")
  (* the library whole too: after [open Bft_crypto] or [module C =
     Bft_crypto], [Auth] is in reach as [Auth] or [C.Auth] *)
  | [ "Bft_crypto" ]
  | "Bft_crypto" :: ("Auth" | "Hmac" | "Signature") :: _
  | ("Auth" | "Hmac" | "Signature") :: _ ->
      Some (Rule.auth_owner, "an authentication module brought into scope outside Seal")
  | ("Domain" | "Atomic" | "Mutex" | "Condition") :: _ ->
      Some
        ( Rule.domain_containment,
          "domain primitives brought into scope; the simulator runs on one domain" )
  | _ -> None

(* Binding names under which Hashtbl iteration order can reach persisted
   or transmitted bytes. *)
let encoder_name n =
  let has sub = Bft_util.Strutil.contains_sub n sub in
  has "encode" || has "snapshot" || has "digest" || has "wire" || has "serial"

let in_encoder ctx = List.exists encoder_name ctx.bindings

(* The simulator a protocol-core file must reach only through its port. *)
let rec path = function
  | Longident.Lident s -> [ s ]
  | Ldot (l, s) -> path l @ [ s ]
  | Lapply (l, _) -> path l

let check_seam ctx ({ txt; loc } : Longident.t Location.loc) =
  match path txt with
  | "Bft_sim" :: _ | "Bft_net" :: "Network" :: _ when ctx.protocol_core ->
      report ctx ~loc ~rule:Rule.protocol_core
        "Bft_sim or Bft_net.Network in a protocol-core file; reach the simulator through the port"
  | _ -> ()

let ident_flat e =
  match e.pexp_desc with Pexp_ident { txt; _ } -> Some (Longident.flatten txt) | _ -> None

let is_sortish e =
  let sort_name = function
    | [ "List"; ("sort" | "stable_sort" | "fast_sort" | "sort_uniq") ] -> true
    | _ -> false
  in
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> sort_name (Longident.flatten txt)
  | Pexp_apply (f, _) -> ( match ident_flat f with Some l -> sort_name l | None -> false)
  | _ -> false

let expr ctx (it : Ast_iterator.iterator) e =
  let saved_allows = ctx.allows in
  ctx.allows <- attr_allows e.pexp_attributes @ ctx.allows;
  (match e.pexp_desc with
  | Pexp_ident ({ txt; loc } as lid) -> (
      check_seam ctx lid;
      match classify_ident (Longident.flatten txt) with
      | Some (rule, msg) -> report ctx ~loc ~rule msg
      | None -> ())
  | Pexp_construct (lid, _) -> check_seam ctx lid
  | Pexp_try (_, cases) ->
      List.iter
        (fun c ->
          match c.pc_lhs.ppat_desc with
          | Ppat_any ->
              report ctx ~loc:c.pc_lhs.ppat_loc ~rule:Rule.swallowed_exception
                "catch-all try handler swallows every failure (including bugs); match specific \
                 exceptions or return a result"
          | _ -> ())
        cases
  | _ -> ());
  (match e.pexp_desc with
  | Pexp_apply (fn, args) ->
      (match ident_flat fn with
      | Some [ "Hashtbl"; ("iter" | "fold") ] when in_encoder ctx && not ctx.sorted ->
          report ctx ~loc:fn.pexp_loc ~rule:Rule.hashtbl_order
            "Hashtbl iteration order reaches encoded bytes; sort the elements first or iterate \
             a canonically ordered structure"
      | _ -> ());
      (* Which argument positions are fed into a List.sort, and therefore
         order-insensitive? *)
      let sorted_arg =
        match ident_flat fn with
        | Some [ "List"; ("sort" | "stable_sort" | "fast_sort" | "sort_uniq") ] -> fun _ -> true
        | Some [ "|>" ] -> (
            match args with [ _; (_, rhs) ] when is_sortish rhs -> fun i -> i = 0 | _ -> fun _ -> false)
        | Some [ "@@" ] -> (
            match args with [ (_, lhs); _ ] when is_sortish lhs -> fun i -> i = 1 | _ -> fun _ -> false)
        | _ -> fun _ -> false
      in
      it.expr it fn;
      List.iteri
        (fun i (_, a) ->
          let saved = ctx.sorted in
          if sorted_arg i then ctx.sorted <- true;
          it.expr it a;
          ctx.sorted <- saved)
        args
  | _ -> Ast_iterator.default_iterator.expr it e);
  ctx.allows <- saved_allows

let value_binding ctx (it : Ast_iterator.iterator) vb =
  let saved_allows = ctx.allows and saved_bindings = ctx.bindings in
  ctx.allows <- attr_allows vb.pvb_attributes @ ctx.allows;
  (match vb.pvb_pat.ppat_desc with
  | Ppat_var { txt; _ } -> ctx.bindings <- String.lowercase_ascii txt :: ctx.bindings
  | _ -> ());
  Ast_iterator.default_iterator.value_binding it vb;
  ctx.allows <- saved_allows;
  ctx.bindings <- saved_bindings

let module_expr ctx (it : Ast_iterator.iterator) me =
  (match me.pmod_desc with
  | Pmod_ident ({ txt; loc } as lid) -> (
      check_seam ctx lid;
      match classify_module (Longident.flatten txt) with
      | Some (rule, msg) -> report ctx ~loc ~rule msg
      | None -> ())
  | _ -> ());
  Ast_iterator.default_iterator.module_expr it me

let typ ctx (it : Ast_iterator.iterator) ty =
  (match ty.ptyp_desc with Ptyp_constr (lid, _) -> check_seam ctx lid | _ -> ());
  Ast_iterator.default_iterator.typ it ty

let structure_item ctx (it : Ast_iterator.iterator) item =
  (match item.pstr_desc with
  | Pstr_primitive vd when List.exists is_unsafe_prim vd.pval_prim ->
      report ctx ~loc:item.pstr_loc ~rule:Rule.unsafe_op
        "external bound to an unchecked primitive outside the crypto/Paged_image allowlist"
  | _ -> ());
  Ast_iterator.default_iterator.structure_item it item

(* A file-level [@@@lint.allow "..."] applies to the rest of the structure. *)
let structure ctx (it : Ast_iterator.iterator) items =
  let saved = ctx.allows in
  List.iter
    (fun item ->
      (match item.pstr_desc with
      | Pstr_attribute a -> ctx.allows <- attr_allows [ a ] @ ctx.allows
      | _ -> ());
      it.structure_item it item)
    items;
  ctx.allows <- saved

let lint (str : structure) : Finding.t list =
  let protocol_core =
    List.exists
      (function
        | { pstr_desc = Pstr_attribute a; _ } -> String.equal a.attr_name.txt "lint.protocol_core"
        | _ -> false)
      str
  in
  let ctx = { findings = []; allows = []; bindings = []; sorted = false; protocol_core } in
  let it =
    {
      Ast_iterator.default_iterator with
      expr = expr ctx;
      value_binding = value_binding ctx;
      module_expr = module_expr ctx;
      typ = typ ctx;
      structure_item = structure_item ctx;
      structure = structure ctx;
    }
  in
  it.structure it str;
  List.rev ctx.findings
