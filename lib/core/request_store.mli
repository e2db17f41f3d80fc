(** A replica's request pipeline (Sections 2.3.2, 5.1.4–5.1.5).

    Holds the request bodies and batches the replica knows by digest, the
    primary's FIFO of requests awaiting a sequence number, the digests
    assigned to a batch but not yet executed, the waiting set that drives
    the view-change timer, pending read-only requests (Section 5.1.3) and
    pre-prepares deferred until their requests can be authenticated. The
    timers themselves stay with the replica: this module only answers
    whether the waiting set changed. *)

type stored = {
  sr_req : Message.request;
  sr_token : Message.auth_token;
  sr_verified : bool;  (** the replica checked its MAC / the signature directly *)
}

type t

val create : unit -> t

(** {2 Requests and batches} *)

val find : t -> string -> stored option
(** The stored request with this digest. *)

val mem : t -> string -> bool

val store_request : t -> Message.request -> Message.auth_token -> bool -> string
(** [store_request t req token verified] records the body and returns its
    digest. A verified copy is never replaced. *)

val resolve_elem : t -> Message.batch_elem -> Message.request option
(** An inline request, or the stored body a digest names. *)

val find_batch : t -> string -> (Message.batch_elem list * string) option
(** [(batch, nondet)] stored under a batch digest. *)

val have_batch_bodies : t -> string -> bool
(** The batch and every request it names are stored (the null batch
    always is). *)

val store_batch : t -> string -> Message.batch_elem list -> string -> unit
(** [store_batch t d batch nondet]: [d] is the batch's digest, computed
    where the batch was built or received. Inline requests are stored
    unverified. *)

(** {2 Primary queue and assignment} *)

val queue_len : t -> int

val enqueue : t -> Message.request -> bool
(** Append to the FIFO unless the request is already queued or assigned;
    [true] when appended. *)

val take : t -> int -> Message.request list
(** Up to [k] requests in FIFO order, removed from the queue and marked
    assigned. *)

val unassign : t -> string -> unit
(** The request executed. *)

val clear_assigned : t -> unit
(** A view change discards every assignment. *)

val in_pipeline : t -> string -> bool
(** Queued, assigned or waiting. *)

val client_inflight : t -> int -> int
(** Distinct requests of this client that are queued, assigned or waiting
    — the count admission control bounds. *)

(** {2 Waiting set} *)

val note_waiting : t -> string -> now:Bft_sim.Engine.time -> bool
(** Start waiting for a request; [false] when it was already waited for. *)

val clear_waiting : t -> string -> Bft_sim.Engine.time option
(** Stop waiting; the arrival time when it was waited for. *)

val waiting_empty : t -> bool

val purge_superseded : t -> client:int -> ts:int64 -> bool
(** Stop waiting for every stored request of [client] with a timestamp at
    or below [ts]; [true] when any was removed. *)

val waiting_requests : t -> stored list
(** The stored bodies of waited-for requests, in digest order. *)

(** {2 Read-only requests and deferred pre-prepares} *)

val push_read_only : t -> Message.request -> unit
val has_read_only : t -> bool

val take_read_only : t -> Message.request list
(** Every pending read-only request, oldest first, and forget them. *)

val defer_pre_prepare : t -> Message.pre_prepare -> size:int -> unit

val take_deferred : t -> (Message.pre_prepare * int) list
(** Every deferred pre-prepare with its wire size, newest first, and
    forget them. *)

val crash_reset : t -> unit
(** Lose everything but the assignments, as a reboot does. *)

val digest : t -> Buffer.t -> unit
(** Append this store's slice of the replica's canonical fingerprint:
    unordered tables sorted, the FIFO and lists in order, arrival times
    left out. *)
