(** What is left of the retired verification pool: the three names the
    benchmark driver ([bench/perf]) still calls. Every MAC check runs
    inline through {!Auth.verify_mac}; this shim folds into {!Auth} with
    the next change to the benchmark driver. *)

type t

val default : unit -> t

type stats = { st_items : int  (** {!Auth.mac_verifications}: tag recomputations so far *) }

val stats : t -> stats

val set_default_domains : int -> unit
(** Accepts only [1]: verification always runs on the calling domain.
    Raises [Invalid_argument] for any other width. *)
