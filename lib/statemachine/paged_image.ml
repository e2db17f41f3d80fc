(* Deterministic paged record arena backing the dirty-aware snapshot
   interface. See the .mli for the determinism argument; the key
   constraints are: pure bump allocation (no free-list), freed regions
   zeroed in place, and the bump pointer persisted in a fixed-width
   header so a restored arena is byte-identical and continues to allocate
   at the same offsets.

   Each page is its own buffer, and the image is their concatenation.
   [pages] hands every buffer out as a string without copying it and
   marks it frozen; the next write to a frozen page copies the page first
   ([writable]), so a handed-out string never changes. Every page past the
   bump pointer is one shared zero page, frozen from the start. *)

type t = {
  page_size : int;
  zero : Bytes.t; (* the page past the bump pointer; never written *)
  mutable pages : Bytes.t array; (* page count doubles with capacity *)
  mutable flags : Bytes.t; (* one byte per page: [dirty] lor [frozen] bits *)
  mutable used : int; (* bump pointer, includes the header *)
  index : (string, int) Hashtbl.t; (* key -> [slot offset len] *)
}

(* An index entry is one immediate int: the record's offset above its
   length's [len_bits] bits. A record must end below 2 GiB, so both
   fit in 31 bits. *)
let len_bits = 31
let len_mask = (1 lsl len_bits) - 1

let slot off len =
  if off + len > len_mask then invalid_arg "Paged_image: record past the index's range";
  (off lsl len_bits) lor len

let slot_off e = e lsr len_bits
let slot_len e = e land len_mask

let dirty = 1 (* touched since the last drain *)
let frozen = 2 (* shared with a string [pages] returned, or the zero page *)

let header_len = 19 (* "ARENA " ^ 12 digits ^ "\n" *)

let min_page_size = 32

let num_pages t = Array.length t.pages
let page_size t = t.page_size

(* Every write goes through here: the page becomes dirty, and a frozen
   page is copied first so that no string handed out by [pages] changes. *)
let writable t pg =
  if Char.code (Bytes.get t.flags pg) land frozen <> 0 then
    t.pages.(pg) <- Bytes.copy t.pages.(pg);
  Bytes.set t.flags pg (Char.unsafe_chr dirty);
  t.pages.(pg)

(* The header's constant bytes are written once per fresh page 0; each
   allocation rewrites only the bump pointer's 12 digits, in place. *)
let write_header t =
  let b = writable t 0 in
  let n = ref t.used in
  for i = header_len - 2 downto 6 do
    Bytes.set b i (Char.unsafe_chr (Char.code '0' + (!n mod 10)));
    n := !n / 10
  done

let init_header t =
  let b = writable t 0 in
  Bytes.blit_string "ARENA " 0 b 0 6;
  Bytes.set b (header_len - 1) '\n';
  write_header t

let create ~page_size () =
  if page_size < min_page_size then invalid_arg "Paged_image.create: page_size";
  let zero = Bytes.make page_size '\x00' in
  let t =
    {
      page_size;
      zero;
      pages = [| zero |];
      flags = Bytes.make 1 (Char.unsafe_chr frozen);
      used = header_len;
      index = Hashtbl.create 64;
    }
  in
  init_header t;
  t

(* A record is "R <klen> <vlen>\n<key><value>\n". *)
let rec digits n = if n < 10 then 1 else 1 + digits (n / 10)
let record_len klen vlen = 2 + digits klen + 1 + digits vlen + 1 + klen + vlen + 1

(* decimal [n] at [pos]; returns the position after it *)
let put_int b pos n =
  let d = digits n in
  let n = ref n in
  for i = pos + d - 1 downto pos do
    Bytes.set b i (Char.unsafe_chr (Char.code '0' + (!n mod 10)));
    n := !n / 10
  done;
  pos + d

let write_record b off key value =
  let klen = String.length key and vlen = String.length value in
  Bytes.set b off 'R';
  Bytes.set b (off + 1) ' ';
  let pos = put_int b (off + 2) klen in
  Bytes.set b pos ' ';
  let pos = put_int b (pos + 1) vlen in
  Bytes.set b pos '\n';
  Bytes.blit_string key 0 b (pos + 1) klen;
  Bytes.blit_string value 0 b (pos + 1 + klen) vlen;
  Bytes.set b (pos + 1 + klen + vlen) '\n'

(* [f pg lo hi] for each page that [off, off+len) meets, with [lo, hi)
   the page-relative span *)
let iter_span t off len f =
  let p = t.page_size in
  if len > 0 then
    for pg = off / p to (off + len - 1) / p do
      let base = pg * p in
      f pg (max off base - base) (min (off + len) (base + p) - base)
    done

let byte t off = Bytes.get t.pages.(off / t.page_size) (off mod t.page_size)

(* the [len] image bytes at [off], which may span pages *)
let read t off len =
  let b = Bytes.create len in
  iter_span t off len (fun pg lo hi ->
      Bytes.blit t.pages.(pg) lo b (pg * t.page_size + lo - off) (hi - lo));
  Bytes.unsafe_to_string b

let grow t needed =
  let old_pages = num_pages t in
  let n = ref old_pages in
  while !n * t.page_size < needed do
    n := !n * 2
  done;
  if !n > old_pages then begin
    t.pages <- Array.init !n (fun pg -> if pg < old_pages then t.pages.(pg) else t.zero);
    (* fresh pages enter the image: they count as dirty *)
    let nf = Bytes.make !n (Char.unsafe_chr (dirty lor frozen)) in
    Bytes.blit t.flags 0 nf 0 old_pages;
    t.flags <- nf
  end

(* Overwrite [off, off+len) with [value], dirtying only pages whose bytes
   actually change. *)
let diff_write t off value =
  iter_span t off (String.length value) (fun pg lo hi ->
      let base = pg * t.page_size in
      let page = t.pages.(pg) in
      let i = ref lo in
      while !i < hi && Bytes.get page !i = String.get value (base + !i - off) do
        incr i
      done;
      if !i < hi then Bytes.blit_string value (base + lo - off) (writable t pg) lo (hi - lo))

let free_region t off len =
  iter_span t off len (fun pg lo hi -> Bytes.fill (writable t pg) lo (hi - lo) '\x00')

let append t key value len =
  grow t (t.used + len);
  let off = t.used in
  let p = t.page_size in
  let pg = off / p in
  if (off + len - 1) / p = pg then write_record (writable t pg) (off - (pg * p)) key value
  else begin
    (* a record across a page boundary is built once, then split *)
    let b = Bytes.create len in
    write_record b 0 key value;
    let s = Bytes.unsafe_to_string b in
    iter_span t off len (fun pg lo hi ->
        Bytes.blit_string s ((pg * p) + lo - off) (writable t pg) lo (hi - lo))
  end;
  t.used <- t.used + len;
  write_header t

let set t ~key ~value =
  let vlen = String.length value in
  let len = record_len (String.length key) vlen in
  match Hashtbl.find_opt t.index key with
  | Some e when slot_len e = len ->
      (* same key and record size, so the same value length (v + digits v
         is increasing): the header and key bytes are unchanged, and only
         the value can differ *)
      diff_write t (slot_off e + len - 1 - vlen) value
  | found ->
      (* the new record goes at the bump pointer; its index entry is
         checked before the arena changes *)
      let e = slot t.used len in
      (match found with Some old -> free_region t (slot_off old) (slot_len old) | None -> ());
      append t key value len;
      Hashtbl.replace t.index key e

let remove t ~key =
  match Hashtbl.find_opt t.index key with
  | None -> false
  | Some e ->
      free_region t (slot_off e) (slot_len e);
      Hashtbl.remove t.index key;
      true

(* the value is the [vlen] bytes before the record's closing newline;
   [vlen]'s digits follow the key length's and end at a newline *)
let find t ~key =
  match Hashtbl.find_opt t.index key with
  | None -> None
  | Some e ->
      let off = slot_off e and len = slot_len e in
      let pos = ref (off + 2 + digits (String.length key) + 1) and vlen = ref 0 in
      while byte t !pos <> '\n' do
        vlen := (!vlen * 10) + Char.code (byte t !pos) - Char.code '0';
        incr pos
      done;
      Some (read t (off + len - 1 - !vlen) !vlen)

let length t = Hashtbl.length t.index

let pages t =
  Array.mapi
    (fun pg page ->
      Bytes.set t.flags pg
        (Char.unsafe_chr (Char.code (Bytes.get t.flags pg) lor frozen));
      Bytes.unsafe_to_string page)
    t.pages

let drain_dirty t =
  let l = ref [] in
  for pg = num_pages t - 1 downto 0 do
    let f = Char.code (Bytes.get t.flags pg) in
    if f land dirty <> 0 then begin
      l := pg :: !l;
      Bytes.set t.flags pg (Char.unsafe_chr (f land lnot dirty))
    end
  done;
  !l

let image t = read t 0 (num_pages t * t.page_size)

(* --- decoding ------------------------------------------------------- *)

let is_digits s lo hi =
  let ok = ref (hi > lo) in
  for i = lo to hi - 1 do
    match s.[i] with '0' .. '9' -> () | _ -> ok := false
  done;
  !ok

let decode_raw ~page_size s =
  let len = String.length s in
  let err fmt = Printf.ksprintf (fun m -> Error ("Paged_image: " ^ m)) fmt in
  if page_size < min_page_size then err "bad page size"
  else if len < page_size || len mod page_size <> 0 then err "image not page-aligned"
  else if len > len_mask then err "image past the index's range"
  else if len < header_len
          || (not (String.equal (String.sub s 0 6) "ARENA "))
          || s.[header_len - 1] <> '\n'
          || not (is_digits s 6 (header_len - 1))
  then err "bad arena header"
  else begin
    let used = int_of_string (String.sub s 6 12) in
    if used < header_len || used > len then err "bad bump pointer"
    else begin
      let records = ref [] in
      let seen = Hashtbl.create 64 in
      let pos = ref header_len in
      let bad = ref None in
      let fail m = if !bad = None then bad := Some m in
      while !bad = None && !pos < used do
        if s.[!pos] = '\x00' then incr pos
        else if s.[!pos] <> 'R' || !pos + 1 >= used || s.[!pos + 1] <> ' ' then
          fail "bad record tag"
        else begin
          match String.index_from_opt s (!pos + 2) ' ' with
          | None -> fail "truncated record header"
          | Some sp -> (
              match String.index_from_opt s (sp + 1) '\n' with
              | None -> fail "truncated record header"
              | Some nl ->
                  if
                    nl >= used || not (is_digits s (!pos + 2) sp)
                    || not (is_digits s (sp + 1) nl)
                  then fail "bad record lengths"
                  else begin
                    let int lo hi = int_of_string_opt (String.sub s lo (hi - lo)) in
                    match (int (!pos + 2) sp, int (sp + 1) nl) with
                    (* each length is bounded by what is left before it is
                       added, so [rec_end] cannot overflow and lies below [used] *)
                    | Some klen, Some vlen
                      when klen < used - nl && vlen < used - nl - 1 - klen
                           && s.[nl + 1 + klen + vlen] = '\n' ->
                        let rec_end = nl + 1 + klen + vlen in
                        let key = String.sub s (nl + 1) klen in
                        let value = String.sub s (nl + 1 + klen) vlen in
                        if Hashtbl.mem seen key then fail "duplicate key"
                        else begin
                          Hashtbl.replace seen key ();
                          records := (key, value, !pos, rec_end + 1 - !pos) :: !records;
                          pos := rec_end + 1
                        end
                    | _ -> fail "truncated record body"
                  end)
        end
      done;
      (* the unallocated tail must be zero: it is part of the digested image *)
      if !bad = None then
        for i = used to len - 1 do
          if s.[i] <> '\x00' then fail "nonzero tail"
        done;
      match !bad with
      | Some m -> err "%s" m
      | None -> Ok (used, List.rev !records)
    end
  end

let decode ~page_size s =
  match decode_raw ~page_size s with
  | Error _ as e -> e
  | Ok (_, records) -> Ok (List.map (fun (k, v, _, _) -> (k, v)) records)

let restore t s =
  match decode_raw ~page_size:t.page_size s with
  | Error _ as e -> e
  | Ok (used, records) ->
      let p = t.page_size in
      let n = String.length s / p in
      (* pages past the bump pointer are zero: decode checked the tail *)
      t.pages <-
        Array.init n (fun pg ->
            if pg * p >= used then t.zero
            else Bytes.unsafe_of_string (String.sub s (pg * p) p));
      t.flags <-
        Bytes.init n (fun pg ->
            Char.unsafe_chr (if pg * p >= used then dirty lor frozen else dirty));
      t.used <- used;
      Hashtbl.reset t.index;
      List.iter (fun (k, _, off, len) -> Hashtbl.replace t.index k (slot off len)) records;
      Ok (List.map (fun (k, v, _, _) -> (k, v)) records)
