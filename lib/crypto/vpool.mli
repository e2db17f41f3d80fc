(** Batched crypto verification on the calling domain.

    Receivers batch independent verification work — HMAC tag checks and
    SHA-256 digest checks — and flush it through {!run}, which verifies
    every job inline and returns a [bool array] indexed by submission
    order: [results.(i)] answers [jobs.(i)]. The process-wide counters
    below record how much work went through. *)

type job =
  | Verify_mac of { pre : Hmac.precomputed; tag : string; msg : string }
      (** Recompute the (truncated) HMAC of [msg] under the precomputed
          key blocks and compare against [tag] in constant time. *)
  | Check_digest of { expect : string; msg : string }
      (** SHA-256 [msg] and compare against [expect]. *)

val run : job array -> bool array
(** Verify every job in order. [results.(i)] is the verdict for
    [jobs.(i)]. *)

(** {2 Counters}

    Cumulative over the process, read through {!default}. *)

type t

type stats = {
  st_batches : int;  (** batches flushed through {!run} *)
  st_items : int;  (** total jobs verified *)
  st_merge_hwm : int;  (** largest single batch (high-water mark) *)
}

val default : unit -> t
(** The process-wide counter record {!run} updates. *)

val stats : t -> stats

val set_default_domains : int -> unit
(** Accepts only [1]: verification always runs on the calling domain.
    Raises [Invalid_argument] for any other width. Kept for the benchmark
    driver that still calls it; removed with the next benchmark change. *)
