(** Protocol message types (Chapters 2-5 of the paper).

    Digests are 32-byte strings ({!Bft_crypto.Sha256}). A batch is the unit
    ordered by the three-phase protocol (Section 5.1.4); prepares and
    commits carry the batch digest. *)

[@@@lint.protocol_core]
type digest = string

(** Client requests (Section 2.3.2). A request is named by its digest
    d = D(m), which pre-prepares, batches and the request tables carry; it
    is computed once, here, by the type's only constructor, so no code —
    byzantine paths and the wire decoder included — can hold a request
    whose [rq_digest] disagrees with its content. *)
module Req : sig
  type t = private {
    op : string;
    timestamp : int64;
    client : int;
    read_only : bool;
    replier : int;
        (** the replica that returns the full result under the
            digest-replies optimization *)
    rq_digest : digest;
        (** SHA-256 of ['R'] followed by the request's wire encoding *)
  }

  val make :
    op:string -> timestamp:int64 -> client:int -> read_only:bool -> replier:int -> t
end = struct
  type t = {
    op : string;
    timestamp : int64;
    client : int;
    read_only : bool;
    replier : int;
    rq_digest : digest;
  }

  module A = Bft_net.Wire_arena

  (* The bytes [Wire] encodes a request body as (client, timestamp, flag,
     replier, length-prefixed op), behind the digest's domain tag. *)
  let scratch = A.create ~size:64 ()

  let make ~op ~timestamp ~client ~read_only ~replier =
    let b = scratch in
    A.reset b;
    A.add_char b 'R';
    A.add_int64_le b (Int64.of_int client);
    A.add_int64_le b timestamp;
    A.add_char b (if read_only then '\x01' else '\x00');
    A.add_int64_le b (Int64.of_int replier);
    A.add_int64_le b (Int64.of_int (String.length op));
    A.add_string b op;
    { op; timestamp; client; read_only; replier; rq_digest = A.digest b }
end

type request = Req.t = private {
  op : string;
  timestamp : int64;
  client : int;
  read_only : bool;
  replier : int;
  rq_digest : digest;
}

let request = Req.make

(** Authentication token attached to a message on the wire. Defined early
    because inline requests carry the client's own token inside
    pre-prepares: backups verify request authenticity independently of the
    primary (Section 3.2.2). *)
type auth_token =
  | Auth_none
  | Auth_mac of Bft_crypto.Auth.mac  (** point-to-point MAC *)
  | Auth_vector of Bft_crypto.Auth.authenticator  (** multicast authenticator *)
  | Auth_sig of Bft_crypto.Signature.t

(** Batch element: small requests are inlined in the pre-prepare (together
    with the client's authentication token); large ones travel separately
    and are referenced by digest (Section 5.1.5). *)
type batch_elem = Inline of request * auth_token | By_digest of digest

type pre_prepare = {
  pp_view : int;
  pp_seq : int;
  pp_batch : batch_elem list;
  pp_nondet : string;
}

type prepare = { pr_view : int; pr_seq : int; pr_digest : digest; pr_replica : int }
type commit = { cm_view : int; cm_seq : int; cm_digest : digest; cm_replica : int }

type checkpoint = { ck_seq : int; ck_digest : digest; ck_replica : int }

type result_payload = Full of string | Result_digest of digest

type reply = {
  rp_view : int;
  rp_timestamp : int64;
  rp_client : int;
  rp_replica : int;
  rp_tentative : bool;
  rp_result : result_payload;
}

(** View-change PSet entry: a batch prepared at the sender with this
    sequence number, digest, and view (Section 3.2.4). *)
type pset_entry = { pe_seq : int; pe_digest : digest; pe_view : int }

(** View-change QSet entry: for one sequence number, the batches that
    pre-prepared at the sender, with the latest view for each digest. *)
type qset_entry = { qe_seq : int; qe_entries : (digest * int) list }

type view_change = {
  vc_view : int;  (** the view being moved to *)
  vc_h : int;  (** sequence number of the sender's last stable checkpoint *)
  vc_cset : (int * digest) list;  (** stored checkpoints: seq, digest *)
  vc_pset : pset_entry list;
  vc_qset : qset_entry list;
  vc_replica : int;
}

type view_change_ack = {
  va_view : int;
  va_replica : int;  (** sender of the ack *)
  va_origin : int;  (** replica whose view-change is acknowledged *)
  va_digest : digest;  (** digest of that view-change message *)
}

(** Per-sequence decision in a new-view: the digest of the batch to
    re-propose, or the null batch. *)
type nv_choice = { nc_seq : int; nc_digest : digest }

type new_view = {
  nv_view : int;
  nv_vcs : (int * digest) list;  (** new-view certificate: sender, vc digest *)
  nv_start : int;  (** chosen checkpoint sequence number *)
  nv_start_digest : digest;
  nv_chosen : nv_choice list;
}

(** State-transfer fetch (Section 5.3.2): request partition [(level,index)]
    newer than checkpoint [lc]; [rc >= 0] asks the designated [replier] for
    the value at exactly checkpoint [rc]. *)
type fetch = {
  ft_level : int;
  ft_index : int;
  ft_lc : int;
  ft_rc : int;
  ft_replier : int;
  ft_replica : int;
}

type meta_data = {
  md_checkpoint : int;  (** checkpoint the metadata describes *)
  md_level : int;
  md_index : int;
  md_subparts : (int * int * digest) list;  (** index, last-mod seq, digest *)
  md_replica : int;
}

type data = { dt_index : int; dt_lm : int; dt_page : string }

(** Status messages (Section 5.2), used as negative acknowledgments. *)
type status_active = {
  sa_replica : int;
  sa_view : int;
  sa_h : int;
  sa_last_exec : int;
  sa_prepared : int list;  (** seqnos prepared but not committed *)
  sa_committed : int list;  (** seqnos committed but not executed *)
}

type status_pending = {
  sp_replica : int;
  sp_view : int;
  sp_h : int;
  sp_last_exec : int;
  sp_has_new_view : bool;
  sp_vcs_seen : int list;  (** senders whose view-changes we hold for sp_view *)
}

(** Key refresh (Section 4.3.1): the keys each peer must use to send to
    [nk_replica]; [nk_counter] is the secure co-processor counter. *)
type new_key = {
  nk_replica : int;
  nk_keys : (int * Bft_crypto.Keychain.key) list;
  nk_counter : int64;
}

(** Recovery estimation protocol (Section 4.3.2). *)
type query_stable = { qs_replica : int; qs_nonce : int64 }

type reply_stable = {
  rs_checkpoint : int;  (** c: last stable checkpoint at the sender *)
  rs_prepared : int;  (** p: last sequence prepared at the sender *)
  rs_replica : int;
  rs_nonce : int64;
}

(** Retransmission of missing bodies: a batch referenced by a new-view
    choice, or a separately-transmitted request referenced by digest in a
    batch (Sections 5.1.5 and 5.2). *)
type fetch_batch = { fb_digest : digest; fb_replica : int }
type batch_data = { bd_digest : digest; bd_batch : batch_elem list; bd_nondet : string }
type fetch_request = { fr_digest : digest; fr_replica : int }

type t =
  | Request of request
  | Reply of reply
  | Pre_prepare of pre_prepare
  | Prepare of prepare
  | Commit of commit
  | Checkpoint of checkpoint
  | View_change of view_change
  | View_change_ack of view_change_ack
  | New_view of new_view
  | Fetch of fetch
  | Meta_data of meta_data
  | Data of data
  | Status_active of status_active
  | Status_pending of status_pending
  | New_key of new_key
  | Query_stable of query_stable
  | Reply_stable of reply_stable
  | Fetch_batch of fetch_batch
  | Batch_data of batch_data
  | Fetch_request of fetch_request

let tag = function
  | Request _ -> "request"
  | Reply _ -> "reply"
  | Pre_prepare _ -> "pre-prepare"
  | Prepare _ -> "prepare"
  | Commit _ -> "commit"
  | Checkpoint _ -> "checkpoint"
  | View_change _ -> "view-change"
  | View_change_ack _ -> "view-change-ack"
  | New_view _ -> "new-view"
  | Fetch _ -> "fetch"
  | Meta_data _ -> "meta-data"
  | Data _ -> "data"
  | Status_active _ -> "status-active"
  | Status_pending _ -> "status-pending"
  | New_key _ -> "new-key"
  | Query_stable _ -> "query-stable"
  | Reply_stable _ -> "reply-stable"
  | Fetch_batch _ -> "fetch-batch"
  | Batch_data _ -> "batch-data"
  | Fetch_request _ -> "fetch-request"

(** Lazily filled encoding cache: the canonical wire bytes of a message
    body and their digest, computed at most once per envelope lifetime.
    Plain mutable options (not a [Wire] abstraction) so that [Message]
    stays free of codec dependencies; [Wire] owns the fill logic. *)
type enc_cache = {
  mutable enc_bytes : string option;
  mutable enc_digest : digest option;
}

let no_cache () = { enc_bytes = None; enc_digest = None }

(** What actually travels on the simulated network. For [Request] and
    [Request_data] the token belongs to the request's client (requests may
    be relayed by backups with the client token intact). [enc] memoizes the
    body's wire encoding and the digest its token covers: the sender fills
    them when sizing and authenticating, and — because the same physical
    envelope is what the simulated network delivers — every receiver's
    verification reuses the same digest, so a message is serialized and
    digested at most once per lifetime. *)
type envelope = { sender : int; body : t; auth : auth_token; enc : enc_cache }

let envelope ~sender ~auth body = { sender; body; auth; enc = no_cache () }
