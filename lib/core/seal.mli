(** Authentication, made and checked in one place.

    The paper authenticates a message with a MAC when it has one receiver,
    an authenticator (Section 3.2.1) when it is multicast to the replicas,
    and a signature under BFT-PK and for new-key messages (Section 4.3.1).
    Who may vouch for a body is a safety rule, so it is written once, here:
    a replica, a client, a derived cohort and the unreplicated baseline all
    seal and open through this module, and bftlint's [auth-owner] rule
    keeps every other [lib/core] and [lib/check] file from calling [Auth],
    [Hmac] or [Signature].

    Every token covers the body's 32-byte digest ([Wire.cached_digest]),
    and every check is charged to the checking principal's virtual CPU. *)

(** What a principal can open, besides signatures. *)
type keys =
  | Replica of Bft_crypto.Keychain.t
      (** pairwise keys; opens MACs and authenticators (a multicast goes
          to the replicas, so only a replica opens one) *)
  | Endpoint of Bft_crypto.Keychain.t
      (** pairwise keys of a client or the unreplicated server; opens MACs *)
  | Cohort of Bft_crypto.Keychain.group
      (** a derived cohort's group; opens MACs under the derived key
          [author -> id] *)

type t = {
  id : int;  (** the principal that seals, and the receiver that opens *)
  n : int;
      (** replicas, ids [0..n-1], the only senders of a body other than a
          request; the primary of view [v] is [v mod n] *)
  mode : Config.auth_mode;
  keys : keys;
  signing : (Bft_crypto.Signature.registry * Bft_crypto.Signature.signer) option;
      (** [None]: the principal makes no signature and refuses every one
          unread *)
  costs : Bft_net.Costs.t;
  charge : float -> unit;  (** the principal's virtual CPU, in us *)
}

(** {2 Sealing} *)

val seal :
  t -> corrupt:bool -> dsts:int list -> Message.enc_cache -> Message.t -> Message.envelope
(** The body's envelope from [t.id], authenticated for [dsts]: a signature
    under [Sig_auth] and always for a [New_key] (charged [sig_gen_us]); a
    MAC for one destination ([mac_us]; [Auth_none] when no session key is
    established); an authenticator, a group one for a cohort, for several
    ([auth_gen_us] for [List.length dsts]). [enc] caches the body's
    encoding and digest. [corrupt] is the mac_storm and partial-
    authenticator fault (Section 3.2.2): the MAC or authenticator entries
    bound for odd-id peers other than [t.id] are flipped, so half the
    replicas refuse the message and half accept it. *)

val sign : t -> Message.digest -> Message.auth_token
(** A signature over the digest, charged [sig_gen_us]: the co-processor's
    signed recovery request. Raises [Invalid_argument] when [t] holds no
    signing key. *)

(** {2 Opening} *)

val author : n:int -> sender:int -> Message.t -> int
(** The principal a body names as its author, whose token vouches for it:
    a request's client, a new-key's [nk_replica], a reply's [rp_replica],
    the primary of the view of a pre-prepare or new-view, the replica
    field of any other protocol body. A batch-data names none and stands
    for its [sender]; so does [Data], which {!opens} never checks: its
    page is checked against the partition tree's digests (Section 5.3.2). *)

type verdict =
  | Authentic  (** the token checks under the author, or the body needs none *)
  | Unproven  (** the sender may carry the body, but its token does not check *)
  | Misattributed
      (** the sender may not send the body: it is not a replica and the
          body is not a request, or it is not the author of a body only
          its author sends (every body but a request, which backups
          relay, and a signed new-key) *)

val opens : t -> Message.envelope -> verdict
(** Check the envelope's token over [Wire.envelope_digest] under the
    body's {!author}. A new-key must carry a signature. What the receiver
    refuses without reading the token costs nothing: a body other than a
    request from a non-replica sender, [Auth_none], a signature at a
    principal without a registry, an authenticator at a non-replica,
    anything but a signature on a new-key. Any other token is charged
    [mac_us] or [sig_verify_us] before it is read, so before a
    signature's signer id is compared and before the sender is matched
    against the author. *)

val authentic : t -> Message.envelope -> bool
(** [opens t env = Authentic]. *)

val opens_request : t -> Message.request -> Message.auth_token -> bool
(** Whether the client's token vouches for a request carried inline in a
    batch (Section 3.2.2, condition 1), over its carried digest, charged
    as {!opens}. *)

val install_key : t -> Message.new_key -> unit
(** Install the key an authentic new-key ships [t] for sending to its
    author (Section 4.3.1); a principal's own new-key, and one that ships
    [t] no key, install nothing. The caller opens the new-key first. *)
