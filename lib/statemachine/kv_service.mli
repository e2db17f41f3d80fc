(** A key-value store service with access control, invariant-preserving
    compound operations, and a non-deterministic timestamp operation.

    Operations (space-separated; keys and values must not contain spaces):
    - ["put <k> <v>"]     write, returns ["ok"]
    - ["get <k>"]         read-only, returns the value or ["ENOENT"]
    - ["del <k>"]         returns ["ok"] or ["ENOENT"]
    - ["cas <k> <old> <new>"] compare-and-swap, returns ["ok"] or ["EAGAIN"]
      or ["ENOENT"] — a complex operation that preserves invariants server
      side, the paper's defense against Byzantine clients (Section 2.2)
    - ["touch <k>"]       stores the agreed non-deterministic timestamp
      (Section 5.4) as the value, returns it
    - ["grant <c>"] / ["revoke <c>"] admin-only access-control updates
      (Section 2.2's revocation mechanism); admin is client 0
    - ["size"]            read-only, number of keys

    When an ACL has been installed with [restrict], only listed clients
    (plus the admin) may execute mutating operations; [get]/[size] are
    always allowed. *)

val create : ?restrict:int list -> ?paged:int -> unit -> Service.t
(** [restrict] installs a starting ACL. No operation can do that inside a
    cluster: [grant] and [revoke] need the admin id 0, which a cluster
    gives to a replica, so only tests of the ACL pass it.

    [paged] (a page size, >= 32) opts into the dirty-aware checkpoint
    interface: the store keeps its bindings in a {!Paged_image} arena
    and snapshots become arena images (a different format from the flat
    default — all replicas of a cluster must agree on the mode). Without
    it the flat sorted-line snapshot format is byte-identical to previous
    releases. *)

val admin_client : int
