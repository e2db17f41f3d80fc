(** One proactive recovery (Section 4.3.2), from the replica's side.

    A recovering replica first estimates H_M, the highest sequence number
    it may still send protocol messages for, from the other replicas'
    stable checkpoints and prepared sequence numbers. It then has a
    recovery request ordered through the protocol, and the replies tell
    it the sequence number the request executed at; the recovery point
    H_R follows. It then checks its state against certified checkpoints
    and fetches what differs, and the recovery completes when a
    checkpoint at or above H_R is stable. The replica keeps the sending,
    the signing, the key refresh and the 50-ms tick. *)

type phase =
  | Estimating  (** collecting reply-stable messages for H_M *)
  | Requesting  (** the recovery request is out; waiting for its replies *)
  | Fetching  (** checking and fetching state until H_R is stable *)

type t

val create : nonce:int64 -> t
val phase : t -> phase

val nonce : t -> int64
(** The estimation protocol's nonce. *)

val request : t -> Message.request option
(** The recovery request, once made. *)

val is_request : Config.t -> Message.request -> bool
(** An executed request is a recovery request when its client is a
    replica id and its op has the recovery prefix. A client's request
    with that prefix is an ordinary operation. *)

val point_for : Config.t -> int -> int
(** The recovery point of a request executed at this sequence number: the
    first checkpoint at or after it, plus a log's worth. *)

val note_reply_stable : t -> Config.t -> self:int -> Message.reply_stable -> int option
(** Record a reply-stable carrying our nonce while estimating. Returns H_M
    when the estimate completes: the largest c_M such that [2f] other
    replicas report a stable checkpoint at or below it and [f] report a
    prepared sequence number at or above it, plus the log size. The phase
    moves to [Requesting]. *)

val make_request : t -> self:int -> counter:int64 -> Message.request
(** The recovery request for this co-processor counter, kept for
    retransmission. *)

val note_reply : t -> Config.t -> Message.reply -> int option
(** Record a reply to the recovery request, under the replica it names
    (the caller checks that the sender is that replica). Returns H_R once
    [2f+1] replicas replied: [point_for] the [(f+1)]-th largest reported
    sequence number, but not below H_M. No [f] replicas can move it out
    of the range the correct replicas report. The phase moves to
    [Fetching]. *)

val fetch_target : t -> Checkpoint_store.t -> weak:int -> transferring:bool -> (int * string) option
(** While fetching: the newest checkpoint certified by [weak] replicas,
    when we do not hold it with that digest, and it is above our stable
    checkpoint or no transfer is under way — the state to check ours
    against and fetch. *)

val completes : t -> stable:int -> bool
(** A stable checkpoint at or above H_R ends the recovery. *)

val digest : t -> Buffer.t -> unit
(** Append this recovery's slice of the replica's canonical fingerprint. *)
