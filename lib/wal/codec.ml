(** Minimal binary codec used by the snapshot and WAL formats.

    Everything on disk is little-endian; integers that are usually small
    (counts, lengths, ids) use LEB128 varints, full-width values use fixed
    64-bit encodings. Strings are length-prefixed byte blobs. The decoder
    works over a string at a mutable position and raises [Corrupt] on any
    short read or malformed varint. Both file formats are sequences of
    CRC frames, encoded and read only here. *)

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun m -> raise (Corrupt m)) fmt

(* ------------------------------------------------------------------ *)
(* Encoding (into a Buffer)                                            *)
(* ------------------------------------------------------------------ *)

let u8 buf v = Buffer.add_char buf (Char.chr (v land 0xff))

let u32 buf v =
  if v < 0 || v > 0xffff_ffff then invalid_arg "Codec.u32: out of range";
  for i = 0 to 3 do
    u8 buf ((v lsr (8 * i)) land 0xff)
  done

(** Unsigned LEB128. *)
let uvarint buf v =
  if v < 0 then invalid_arg "Codec.uvarint: negative";
  let rec go v =
    if v < 0x80 then u8 buf v
    else begin
      u8 buf (0x80 lor (v land 0x7f));
      go (v lsr 7)
    end
  in
  go v

(** Signed integers zig-zag through {!uvarint}. *)
let varint buf v =
  uvarint buf ((v lsl 1) lxor (v asr (Sys.int_size - 1)))

let i64 buf (v : int64) =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 v;
  Buffer.add_bytes buf b

let f64 buf (v : float) = i64 buf (Int64.bits_of_float v)

let str buf s =
  uvarint buf (String.length s);
  Buffer.add_string buf s

let opt enc buf = function
  | None -> u8 buf 0
  | Some v ->
      u8 buf 1;
      enc buf v

let list enc buf xs =
  uvarint buf (List.length xs);
  List.iter (enc buf) xs

(* ------------------------------------------------------------------ *)
(* Decoding (from a string at a mutable position)                      *)
(* ------------------------------------------------------------------ *)

type reader = { src : string; mutable pos : int }

let reader src = { src; pos = 0 }
let at_end r = r.pos >= String.length r.src

let need r n =
  if r.pos + n > String.length r.src then
    corrupt "short read: need %d bytes at %d/%d" n r.pos (String.length r.src)

let g_u8 r =
  need r 1;
  let v = Char.code r.src.[r.pos] in
  r.pos <- r.pos + 1;
  v

let g_u32 r =
  let b0 = g_u8 r in
  let b1 = g_u8 r in
  let b2 = g_u8 r in
  let b3 = g_u8 r in
  b0 lor (b1 lsl 8) lor (b2 lsl 16) lor (b3 lsl 24)

let g_uvarint r =
  let rec go shift acc =
    if shift > Sys.int_size then corrupt "varint overflow at %d" r.pos;
    let b = g_u8 r in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 = 0 then acc else go (shift + 7) acc
  in
  go 0 0

let g_varint r =
  let v = g_uvarint r in
  (v lsr 1) lxor (-(v land 1))

let g_i64 r =
  need r 8;
  let v = String.get_int64_le r.src r.pos in
  r.pos <- r.pos + 8;
  v

let g_f64 r = Int64.float_of_bits (g_i64 r)

let g_str r =
  let n = g_uvarint r in
  need r n;
  let s = String.sub r.src r.pos n in
  r.pos <- r.pos + n;
  s

let g_opt dec r = match g_u8 r with 0 -> None | _ -> Some (dec r)

(* Explicit recursion: the decoder is effectful, so the evaluation order
   of List.init/Array.init must not be relied on. *)
let g_list dec r =
  let n = g_uvarint r in
  let rec go i acc = if i = n then List.rev acc else go (i + 1) (dec r :: acc) in
  go 0 []

(* ------------------------------------------------------------------ *)
(* CRC-32 (ISO 3309 / zlib polynomial), for frames                     *)
(* ------------------------------------------------------------------ *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32 ?(init = 0) s =
  let tbl = Lazy.force crc_table in
  let c = ref (init lxor 0xffffffff) in
  String.iter
    (fun ch -> c := tbl.((!c lxor Char.code ch) land 0xff) lxor (!c lsr 8))
    s;
  !c lxor 0xffffffff land 0xffffffff

(* ------------------------------------------------------------------ *)
(* Frames: [u32 length][u32 crc][payload], CRC over length + payload   *)
(* ------------------------------------------------------------------ *)

let frame payload =
  let buf = Buffer.create (String.length payload + 8) in
  u32 buf (String.length payload);
  u32 buf (crc32 ~init:(crc32 (Buffer.contents buf)) payload);
  Buffer.add_string buf payload;
  Buffer.contents buf

let write_all fd s =
  let n = String.length s in
  let rec go off =
    if off < n then go (off + Unix.write_substring fd s off (n - off))
  in
  go 0

let g_frame r =
  let start = r.pos in
  match
    let len = g_u32 r in
    let crc = g_u32 r in
    need r len;
    let payload = String.sub r.src r.pos len in
    if crc32 ~init:(crc32 (String.sub r.src start 4)) payload <> crc then
      corrupt "frame CRC mismatch at %d" start;
    r.pos <- r.pos + len;
    payload
  with
  | payload -> Some payload
  | exception Corrupt _ ->
      r.pos <- start;
      None
