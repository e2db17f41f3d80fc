(** Hexadecimal encoding of binary strings. *)

val encode : string -> string
(** [encode s] is the lowercase hex rendering of [s], two characters per
    byte. *)

val decode : string -> string
(** [decode h] inverts {!encode}. Raises [Invalid_argument] if [h] has odd
    length or contains a non-hex character. *)
