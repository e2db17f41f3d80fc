[@@@lint.protocol_core]
type t = {
  service : Bft_sm.Service.t;
  page_size : int;
  replies : (int, int64 * string * int) Hashtbl.t; (* client -> t, result, view *)
  (* the clients in [replies], kept ascending so the codec streams the
     cache without a per-checkpoint sort *)
  mutable clients : int list;
  (* the tree the paged service's drained dirty set is relative to: when
     it is not the store's latest, the next checkpoint passes every page
     as dirty *)
  mutable synced : Partition_tree.t option;
}

let magic = "PAGED "

let create (service : Bft_sm.Service.t) =
  let page_size = match service.paged with Some pg -> pg.pg_page_size | None -> 4096 in
  (* raised on behalf of [Replica.create], the one caller *)
  if page_size < String.length (Printf.sprintf "%s%d %d\n" magic max_int max_int) then
    invalid_arg "Replica.create: page too small for the paged checkpoint header";
  { service; page_size; replies = Hashtbl.create 16; clients = []; synced = None }

let page_size t = t.page_size
let reply t client = Hashtbl.find_opt t.replies client
let clients t = t.clients

let set_reply t client entry =
  if not (Hashtbl.mem t.replies client) then begin
    let rec ins = function c :: tl when c < client -> c :: ins tl | l -> client :: l in
    t.clients <- ins t.clients
  end;
  Hashtbl.replace t.replies client entry

(* The reply cache in ascending client order, one
   "client ts view len\nresult" record per client. *)
let render_replies t =
  let b = Buffer.create 256 in
  List.iter
    (fun c ->
      match Hashtbl.find_opt t.replies c with
      | None -> ()
      | Some (ts, res, v) ->
          List.iter (Buffer.add_string b)
            [ string_of_int c; " "; Int64.to_string ts; " "; string_of_int v; " ";
              string_of_int (String.length res); "\n"; res ])
    t.clients;
  Buffer.contents b

(* Validate the reply-cache region [s.(pos..)] into its entries. *)
let parse_replies s ~pos =
  let len = String.length s in
  let rec go pos acc =
    if pos >= len then Ok (List.rev acc)
    else
      match String.index_from_opt s pos '\n' with
      | None -> Error "unterminated reply-cache header"
      | Some nl -> (
          match String.split_on_char ' ' (String.sub s pos (nl - pos)) with
          | [ c; ts; v; n ] -> (
              let int = int_of_string_opt in
              match (int c, Int64.of_string_opt ts, int v, int n) with
              | Some c, Some ts, Some v, Some n when n >= 0 && n <= len - nl - 1 ->
                  go (nl + 1 + n) ((c, (ts, String.sub s (nl + 1) n, v)) :: acc)
              | _ -> Error "truncated or malformed reply-cache record")
          | _ -> Error "malformed reply-cache header")
  in
  go pos []

(* The image's first piece: "<svc_len>\n" in the flat layout; in the
   paged one, page 0: "PAGED <svc_len> <reply_len>\n" zero-padded. *)
let header t ~svc_len ~reply_len =
  match t.service.paged with
  | None -> string_of_int svc_len ^ "\n"
  | Some _ ->
      let line = Printf.sprintf "%s%d %d\n" magic svc_len reply_len in
      line ^ String.make (t.page_size - String.length line) '\000'

(* [s] cut into pages, the last one shorter. *)
let cut p s =
  let len = String.length s in
  Array.init ((len + p - 1) / p) (fun i -> String.sub s (i * p) (min p (len - (i * p))))

let render t =
  let svc = t.service.snapshot () and replies = render_replies t in
  String.concat ""
    [ header t ~svc_len:(String.length svc) ~reply_len:(String.length replies); svc; replies ]

(* A paged checkpoint re-digests only the pages the service reported
   dirty, plus the header and the reply pages, which churn every
   interval; that needs [synced] to be the latest tree, and otherwise
   every page is compared. Unchanged pages keep their records either
   way, so the tree is the same. *)
let take_paged t store ~seq (pg : Bft_sm.Service.paged) =
  let svc_pages = pg.pg_pages () and svc_dirty = pg.pg_drain_dirty () in
  let n_svc = Array.length svc_pages in
  let replies = render_replies t in
  let reply_pages = cut t.page_size replies in
  let header = header t ~svc_len:(n_svc * t.page_size) ~reply_len:(String.length replies) in
  let pages = Array.concat [ [| header |]; svc_pages; reply_pages ] in
  let dirty =
    match (t.synced, Checkpoint_store.latest store) with
    | Some synced, Some latest when synced == latest ->
        (0 :: List.map succ svc_dirty)
        @ List.init (Array.length reply_pages) (fun i -> 1 + n_svc + i)
    | _ -> List.init (Array.length pages) Fun.id
  in
  let tree = Checkpoint_store.take store ~seq ~pages ~dirty in
  t.synced <- Some tree;
  tree

let take t store ~seq =
  match t.service.paged with
  | Some pg -> take_paged t store ~seq pg
  | None ->
      let pages = cut t.page_size (render t) in
      Checkpoint_store.take store ~seq ~pages ~dirty:(List.init (Array.length pages) Fun.id)

(* The service region of [s] and where its reply records start, in the
   layout of this replica's service. *)
let split t s =
  let len = String.length s in
  match t.service.paged with
  | None -> (
      match String.index_opt s '\n' with
      | None -> Error "missing snapshot header"
      | Some nl -> (
          match int_of_string_opt (String.sub s 0 nl) with
          | Some svc_len when svc_len >= 0 && svc_len <= len - nl - 1 ->
              Ok (String.sub s (nl + 1) svc_len, nl + 1 + svc_len)
          | _ -> Error "bad service length in snapshot header"))
  | Some _ -> (
      let p = t.page_size and m = String.length magic in
      let bad = Error "bad paged snapshot header" in
      match String.index_opt s '\n' with
      | Some nl when nl < p && String.starts_with ~prefix:magic s -> (
          (* page 0 must be exactly the header page its numbers give *)
          match List.map int_of_string_opt (String.split_on_char ' ' (String.sub s m (nl - m))) with
          | [ Some svc_len; Some reply_len ]
            when svc_len >= 0 && reply_len >= 0 && svc_len <= len - p
                 && reply_len = len - p - svc_len
                 && String.equal (String.sub s 0 p) (header t ~svc_len ~reply_len) ->
              Ok (String.sub s p svc_len, p + svc_len)
          | _ -> bad)
      | _ -> bad)

let restore t s =
  match split t s with
  | Error _ as e -> e
  | Ok (svc, reply_pos) -> (
      match parse_replies s ~pos:reply_pos with
      | Error _ as e -> e
      | Ok entries -> (
          match t.service.restore svc with
          | Error reason -> Error ("service refused snapshot: " ^ reason)
          | Ok () ->
              Hashtbl.reset t.replies;
              List.iter (fun (c, e) -> Hashtbl.replace t.replies c e) entries;
              t.clients <- List.sort_uniq compare (List.map fst entries);
              Ok ()))
