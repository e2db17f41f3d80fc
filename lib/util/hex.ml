let hex_chars = "0123456789abcdef"

let encode s =
  let n = String.length s in
  let b = Bytes.create (2 * n) in
  for i = 0 to n - 1 do
    let c = Char.code s.[i] in
    Bytes.set b (2 * i) hex_chars.[c lsr 4];
    Bytes.set b ((2 * i) + 1) hex_chars.[c land 0xf]
  done;
  (* freeze idiom: [b] is never written again after this point *)
  (Bytes.unsafe_to_string b [@lint.allow "unsafe-op"])

let nibble c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> invalid_arg "Hex.decode: non-hex character"

let decode h =
  let n = String.length h in
  if n mod 2 <> 0 then invalid_arg "Hex.decode: odd length";
  String.init (n / 2) (fun i ->
      Char.chr ((nibble h.[2 * i] lsl 4) lor nibble h.[(2 * i) + 1]))
