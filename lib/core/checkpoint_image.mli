(** The replica's checkpoint image (Sections 2.4.4 and 5.3): the service
    state plus each client's last reply, which the paper's checkpoints
    snapshot together. Its layout is picked from the service kind, never
    from the bytes:
    - flat service: ["<svc_len>\n"], the snapshot and the reply records,
      cut into 4096-byte pages;
    - paged service: a header page (["PAGED <svc_len> <reply_len>\n"]
      zero-padded), the service's own pages, then the reply records cut
      to the same page size.

    A reply record is ["client ts view len\n"] and the result, one per
    client in ascending order. *)

type t

val create : Bft_sm.Service.t -> t
(** An empty reply cache over the service. Raises [Invalid_argument]
    when the service's page cannot hold the longest paged header,
    ["PAGED <max_int> <max_int>\n"] (46 bytes). *)

val page_size : t -> int
(** The checkpoint page: the paged service's own, or 4096. *)

val reply : t -> int -> (int64 * string * int) option
(** The client's last reply: its request timestamp, result and view. *)

val set_reply : t -> int -> int64 * string * int -> unit

val clients : t -> int list
(** The clients with a cached reply, ascending. *)

val take : t -> Checkpoint_store.t -> seq:int -> Partition_tree.t
(** Checkpoint the image at [seq]. A flat image lists every page dirty; a
    paged one the service's drained dirty pages, the header and the reply
    pages, or every page when the store's latest tree is not the one this
    image took last. *)

val restore : t -> string -> (unit, string) result
(** Install an image in this layout. The framing, the reply records and
    the service's own [restore] check it first: on [Error] the service
    and the reply cache are as they were. *)

val render : t -> string
(** The current image's bytes. *)
