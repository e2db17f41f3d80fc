open Message

(* Encoders write directly into a Wire_arena: an allocate-once bump buffer
   that replaces the per-encode Buffer (allocation + doubling copies +
   final contents copy). Digest- and size-only paths finish straight off
   the arena's backing bytes with no string allocation at all; only
   encodes whose bytes must escape (the envelope's [enc_bytes]) pay one
   [A.contents] copy. *)
module A = Bft_net.Wire_arena

let add_int64 b (v : int64) = A.add_int64_le b v
let add_int b v = add_int64 b (Int64.of_int v)

let add_string b s =
  add_int b (String.length s);
  A.add_string b s

let add_bool b v = A.add_char b (if v then '\x01' else '\x00')

let add_list b f l =
  add_int b (List.length l);
  List.iter (f b) l

let encode_request b r =
  add_int b r.client;
  add_int64 b r.timestamp;
  add_bool b r.read_only;
  add_int b r.replier;
  add_string b r.op

(* A request carries its own digest ([Message.request] computes it once);
   a batch digest hashes those carried digests, so neither depends on the
   size of the operations. The view-change digest is memoized: a
   view-change is digested by every replica that acks or certifies it,
   off the per-message path. The table is bounded by a reset at a size
   cap; memoizing a pure function cannot perturb determinism. *)

let vc_memo_cap = 8192
let vc_memo : (view_change, digest) Hashtbl.t = Hashtbl.create 64
let clear_memos () = Hashtbl.reset vc_memo

(* The one scratch arena every encode writes into. Everything runs on one
   domain, and no encoder re-enters another mid-write. *)
let scratch = A.create ~size:1024 ()

let request_digest r = r.rq_digest

let encode_batch_elem b = function
  | Inline (r, _tok) ->
      A.add_char b 'I';
      encode_request b r
  | By_digest d ->
      A.add_char b 'D';
      add_string b d

let batch_digest batch nondet =
  let b = scratch in
  A.reset b;
  A.add_char b 'B';
  add_int b (List.length batch);
  List.iter
    (function Inline (r, _) -> A.add_string b r.rq_digest | By_digest d -> A.add_string b d)
    batch;
  add_string b nondet;
  A.digest b

let null_batch_digest = Bft_crypto.Sha256.digest "NULL-BATCH"

let encode_pset b (e : pset_entry) =
  add_int b e.pe_seq;
  add_string b e.pe_digest;
  add_int b e.pe_view

let encode_qset b (e : qset_entry) =
  add_int b e.qe_seq;
  add_list b
    (fun b (d, v) ->
      add_string b d;
      add_int b v)
    e.qe_entries

let encode_int_digest b (n, d) =
  add_int b n;
  add_string b d

let encode_body b = function
  | Request r ->
      A.add_char b '\x01';
      encode_request b r
  | Reply r ->
      A.add_char b '\x02';
      add_int b r.rp_view;
      add_int64 b r.rp_timestamp;
      add_int b r.rp_client;
      add_int b r.rp_replica;
      add_bool b r.rp_tentative;
      (match r.rp_result with
      | Full s ->
          A.add_char b 'F';
          add_string b s
      | Result_digest d ->
          A.add_char b 'D';
          add_string b d)
  | Pre_prepare p ->
      A.add_char b '\x03';
      add_int b p.pp_view;
      add_int b p.pp_seq;
      add_list b encode_batch_elem p.pp_batch;
      add_string b p.pp_nondet
  | Prepare p ->
      A.add_char b '\x04';
      add_int b p.pr_view;
      add_int b p.pr_seq;
      add_string b p.pr_digest;
      add_int b p.pr_replica
  | Commit c ->
      A.add_char b '\x05';
      add_int b c.cm_view;
      add_int b c.cm_seq;
      add_string b c.cm_digest;
      add_int b c.cm_replica
  | Checkpoint c ->
      A.add_char b '\x06';
      add_int b c.ck_seq;
      add_string b c.ck_digest;
      add_int b c.ck_replica
  | View_change v ->
      A.add_char b '\x07';
      add_int b v.vc_view;
      add_int b v.vc_h;
      add_list b encode_int_digest v.vc_cset;
      add_list b encode_pset v.vc_pset;
      add_list b encode_qset v.vc_qset;
      add_int b v.vc_replica
  | View_change_ack a ->
      A.add_char b '\x08';
      add_int b a.va_view;
      add_int b a.va_replica;
      add_int b a.va_origin;
      add_string b a.va_digest
  | New_view n ->
      A.add_char b '\x09';
      add_int b n.nv_view;
      add_list b encode_int_digest n.nv_vcs;
      add_int b n.nv_start;
      add_string b n.nv_start_digest;
      add_list b
        (fun b c ->
          add_int b c.nc_seq;
          add_string b c.nc_digest)
        n.nv_chosen
  | Fetch f ->
      A.add_char b '\x0a';
      add_int b f.ft_level;
      add_int b f.ft_index;
      add_int b f.ft_lc;
      add_int b f.ft_rc;
      add_int b f.ft_replier;
      add_int b f.ft_replica
  | Meta_data m ->
      A.add_char b '\x0b';
      add_int b m.md_checkpoint;
      add_int b m.md_level;
      add_int b m.md_index;
      add_list b
        (fun b (i, lm, d) ->
          add_int b i;
          add_int b lm;
          add_string b d)
        m.md_subparts;
      add_int b m.md_replica
  | Data d ->
      A.add_char b '\x0c';
      add_int b d.dt_index;
      add_int b d.dt_lm;
      add_string b d.dt_page
  | Status_active s ->
      A.add_char b '\x0d';
      add_int b s.sa_replica;
      add_int b s.sa_view;
      add_int b s.sa_h;
      add_int b s.sa_last_exec;
      add_list b (fun b n -> add_int b n) s.sa_prepared;
      add_list b (fun b n -> add_int b n) s.sa_committed
  | Status_pending s ->
      A.add_char b '\x0e';
      add_int b s.sp_replica;
      add_int b s.sp_view;
      add_int b s.sp_h;
      add_int b s.sp_last_exec;
      add_bool b s.sp_has_new_view;
      add_list b (fun b n -> add_int b n) s.sp_vcs_seen
  | New_key k ->
      A.add_char b '\x0f';
      add_int b k.nk_replica;
      add_list b
        (fun b (peer, (key : Bft_crypto.Keychain.key)) ->
          add_int b peer;
          add_string b key.secret;
          add_int b key.epoch)
        k.nk_keys;
      add_int64 b k.nk_counter
  | Query_stable q ->
      A.add_char b '\x10';
      add_int b q.qs_replica;
      add_int64 b q.qs_nonce
  | Reply_stable r ->
      A.add_char b '\x11';
      add_int b r.rs_checkpoint;
      add_int b r.rs_prepared;
      add_int b r.rs_replica;
      add_int64 b r.rs_nonce
  | Fetch_batch f ->
      A.add_char b '\x12';
      add_string b f.fb_digest;
      add_int b f.fb_replica
  | Batch_data d ->
      A.add_char b '\x13';
      add_string b d.bd_digest;
      add_list b encode_batch_elem d.bd_batch;
      add_string b d.bd_nondet
  | Fetch_request f ->
      A.add_char b '\x14';
      add_string b f.fr_digest;
      add_int b f.fr_replica

let encode m =
  A.reset scratch;
  encode_body scratch m;
  A.contents scratch

(* Sizing never leaves the arena: no string is allocated. *)
let size m =
  A.reset scratch;
  encode_body scratch m;
  A.length scratch

let auth_size = function
  | Auth_none -> 0
  | Auth_mac _ -> 8 + Bft_crypto.Auth.tag_size
  | Auth_vector a -> Bft_crypto.Auth.size a
  | Auth_sig _ -> 128 (* 1024-bit signature *)

(* ------------------------------------------------------------------ *)
(* Encode-once envelopes                                               *)
(* ------------------------------------------------------------------ *)

(* Fill (or reuse) a cache with the body's canonical encoding. The sender
   calls this before authenticating; [envelope_size] and every receiver's
   verification then reuse the same physical string. *)
let cached_encode (cache : enc_cache) body =
  match cache.enc_bytes with
  | Some s -> s
  | None ->
      A.reset scratch;
      encode_body scratch body;
      let s = A.contents scratch in
      cache.enc_bytes <- Some s;
      s

let envelope_bytes (e : envelope) = cached_encode e.enc e.body

(* The MAC and signature input. A request's is the digest it carries,
   SHA-256 of 'R' and its fields, which no body's encoding (tags
   0x01-0x14) can collide with; any other body's is the digest of its
   cached encoding, computed once. *)
let cached_digest (cache : enc_cache) body =
  match body with
  | Request r -> r.rq_digest
  | _ -> (
      match cache.enc_digest with
      | Some d -> d
      | None ->
          let d = Bft_crypto.Sha256.digest (cached_encode cache body) in
          cache.enc_digest <- Some d;
          d)

let envelope_digest (e : envelope) = cached_digest e.enc e.body

let envelope_size e =
  8 (* header *) + String.length (envelope_bytes e) + auth_size e.auth

let view_change_digest v =
  match Hashtbl.find_opt vc_memo v with
  | Some d -> d
  | None ->
      if Hashtbl.length vc_memo >= vc_memo_cap then Hashtbl.reset vc_memo;
      A.reset scratch;
      encode_body scratch (View_change v);
      let d = A.digest scratch in
      Hashtbl.add vc_memo v d;
      d

(* domain-tagged digests, built in the arena to skip the "TAG" ^ s
   concatenation (the bytes hashed are identical) *)
let tagged_digest tag s =
  A.reset scratch;
  A.add_string scratch tag;
  A.add_string scratch s;
  A.digest scratch

let result_digest s = tagged_digest "RES" s

(* ------------------------------------------------------------------ *)
(* Decoding                                                            *)
(* ------------------------------------------------------------------ *)

exception Malformed of string

type cursor = { buf : string; mutable pos : int }

let need c n =
  if c.pos + n > String.length c.buf then raise (Malformed "truncated input")

let get_byte c =
  need c 1;
  let b = c.buf.[c.pos] in
  c.pos <- c.pos + 1;
  b

let get_int64 c =
  need c 8;
  let v = String.get_int64_le c.buf c.pos in
  c.pos <- c.pos + 8;
  v

let get_int c =
  let v = get_int64 c in
  let i = Int64.to_int v in
  if Int64.of_int i <> v then raise (Malformed "integer out of range");
  i

let get_string c =
  let len = get_int c in
  if len < 0 then raise (Malformed "negative length");
  need c len;
  let s = String.sub c.buf c.pos len in
  c.pos <- c.pos + len;
  s

let get_bool c =
  match get_byte c with
  | '\x00' -> false
  | '\x01' -> true
  | _ -> raise (Malformed "bad boolean")

let get_list c f =
  let n = get_int c in
  if n < 0 then raise (Malformed "negative list length");
  List.init n (fun _ -> f c)

let get_request c =
  let client = get_int c in
  let timestamp = get_int64 c in
  let read_only = get_bool c in
  let replier = get_int c in
  let op = get_string c in
  Message.request ~op ~timestamp ~client ~read_only ~replier

let get_batch_elem c =
  match get_byte c with
  | 'I' -> Inline (get_request c, Auth_none)
  | 'D' -> By_digest (get_string c)
  | _ -> raise (Malformed "bad batch element tag")

let get_pset c =
  let pe_seq = get_int c in
  let pe_digest = get_string c in
  let pe_view = get_int c in
  { pe_seq; pe_digest; pe_view }

let get_qset c =
  let qe_seq = get_int c in
  let qe_entries =
    get_list c (fun c ->
        let d = get_string c in
        let v = get_int c in
        (d, v))
  in
  { qe_seq; qe_entries }

let get_int_digest c =
  let n = get_int c in
  let d = get_string c in
  (n, d)

let decode_body c =
  match get_byte c with
  | '\x01' -> Request (get_request c)
  | '\x02' ->
      let rp_view = get_int c in
      let rp_timestamp = get_int64 c in
      let rp_client = get_int c in
      let rp_replica = get_int c in
      let rp_tentative = get_bool c in
      let rp_result =
        match get_byte c with
        | 'F' -> Full (get_string c)
        | 'D' -> Result_digest (get_string c)
        | _ -> raise (Malformed "bad result tag")
      in
      Reply { rp_view; rp_timestamp; rp_client; rp_replica; rp_tentative; rp_result }
  | '\x03' ->
      let pp_view = get_int c in
      let pp_seq = get_int c in
      let pp_batch = get_list c get_batch_elem in
      let pp_nondet = get_string c in
      Pre_prepare { pp_view; pp_seq; pp_batch; pp_nondet }
  | '\x04' ->
      let pr_view = get_int c in
      let pr_seq = get_int c in
      let pr_digest = get_string c in
      let pr_replica = get_int c in
      Prepare { pr_view; pr_seq; pr_digest; pr_replica }
  | '\x05' ->
      let cm_view = get_int c in
      let cm_seq = get_int c in
      let cm_digest = get_string c in
      let cm_replica = get_int c in
      Commit { cm_view; cm_seq; cm_digest; cm_replica }
  | '\x06' ->
      let ck_seq = get_int c in
      let ck_digest = get_string c in
      let ck_replica = get_int c in
      Checkpoint { ck_seq; ck_digest; ck_replica }
  | '\x07' ->
      let vc_view = get_int c in
      let vc_h = get_int c in
      let vc_cset = get_list c get_int_digest in
      let vc_pset = get_list c get_pset in
      let vc_qset = get_list c get_qset in
      let vc_replica = get_int c in
      View_change { vc_view; vc_h; vc_cset; vc_pset; vc_qset; vc_replica }
  | '\x08' ->
      let va_view = get_int c in
      let va_replica = get_int c in
      let va_origin = get_int c in
      let va_digest = get_string c in
      View_change_ack { va_view; va_replica; va_origin; va_digest }
  | '\x09' ->
      let nv_view = get_int c in
      let nv_vcs = get_list c get_int_digest in
      let nv_start = get_int c in
      let nv_start_digest = get_string c in
      let nv_chosen =
        get_list c (fun c ->
            let nc_seq = get_int c in
            let nc_digest = get_string c in
            { nc_seq; nc_digest })
      in
      New_view { nv_view; nv_vcs; nv_start; nv_start_digest; nv_chosen }
  | '\x0a' ->
      let ft_level = get_int c in
      let ft_index = get_int c in
      let ft_lc = get_int c in
      let ft_rc = get_int c in
      let ft_replier = get_int c in
      let ft_replica = get_int c in
      Fetch { ft_level; ft_index; ft_lc; ft_rc; ft_replier; ft_replica }
  | '\x0b' ->
      let md_checkpoint = get_int c in
      let md_level = get_int c in
      let md_index = get_int c in
      let md_subparts =
        get_list c (fun c ->
            let i = get_int c in
            let lm = get_int c in
            let d = get_string c in
            (i, lm, d))
      in
      let md_replica = get_int c in
      Meta_data { md_checkpoint; md_level; md_index; md_subparts; md_replica }
  | '\x0c' ->
      let dt_index = get_int c in
      let dt_lm = get_int c in
      let dt_page = get_string c in
      Data { dt_index; dt_lm; dt_page }
  | '\x0d' ->
      let sa_replica = get_int c in
      let sa_view = get_int c in
      let sa_h = get_int c in
      let sa_last_exec = get_int c in
      let sa_prepared = get_list c get_int in
      let sa_committed = get_list c get_int in
      Status_active { sa_replica; sa_view; sa_h; sa_last_exec; sa_prepared; sa_committed }
  | '\x0e' ->
      let sp_replica = get_int c in
      let sp_view = get_int c in
      let sp_h = get_int c in
      let sp_last_exec = get_int c in
      let sp_has_new_view = get_bool c in
      let sp_vcs_seen = get_list c get_int in
      Status_pending { sp_replica; sp_view; sp_h; sp_last_exec; sp_has_new_view; sp_vcs_seen }
  | '\x0f' ->
      let nk_replica = get_int c in
      let nk_keys =
        get_list c (fun c ->
            let peer = get_int c in
            let secret = get_string c in
            let epoch = get_int c in
            (peer, { Bft_crypto.Keychain.secret; epoch }))
      in
      let nk_counter = get_int64 c in
      New_key { nk_replica; nk_keys; nk_counter }
  | '\x10' ->
      let qs_replica = get_int c in
      let qs_nonce = get_int64 c in
      Query_stable { qs_replica; qs_nonce }
  | '\x11' ->
      let rs_checkpoint = get_int c in
      let rs_prepared = get_int c in
      let rs_replica = get_int c in
      let rs_nonce = get_int64 c in
      Reply_stable { rs_checkpoint; rs_prepared; rs_replica; rs_nonce }
  | '\x12' ->
      let fb_digest = get_string c in
      let fb_replica = get_int c in
      Fetch_batch { fb_digest; fb_replica }
  | '\x13' ->
      let bd_digest = get_string c in
      let bd_batch = get_list c get_batch_elem in
      let bd_nondet = get_string c in
      Batch_data { bd_digest; bd_batch; bd_nondet }
  | '\x14' ->
      let fr_digest = get_string c in
      let fr_replica = get_int c in
      Fetch_request { fr_digest; fr_replica }
  | _ -> raise (Malformed "unknown message tag")

let decode s =
  let c = { buf = s; pos = 0 } in
  match decode_body c with
  | m ->
      if c.pos <> String.length s then Error "trailing bytes"
      else Ok m
  | exception Malformed why -> Error why
