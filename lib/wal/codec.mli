(** Minimal binary codec used by the snapshot and WAL formats.

    Everything on disk is little-endian; integers that are usually small
    (counts, lengths, ids) use LEB128 varints, full-width values use
    fixed 64-bit encodings. Strings are length-prefixed byte blobs. The
    decoder raises {!Corrupt} on any short read or malformed varint.

    Both file formats are sequences of {!frame}s: the WAL one per record,
    the snapshot one per catalog entry. *)

exception Corrupt of string

(** Raise {!Corrupt} with a formatted message. *)
val corrupt : ('a, unit, string, 'b) format4 -> 'a

(** {1 Encoding (into a [Buffer])} *)

val u8 : Buffer.t -> int -> unit

(** Raises [Invalid_argument] for a value outside [[0, 2^32)]. *)
val u32 : Buffer.t -> int -> unit

(** Unsigned LEB128. *)
val uvarint : Buffer.t -> int -> unit

(** Signed integers zig-zag through {!uvarint}. *)
val varint : Buffer.t -> int -> unit

val i64 : Buffer.t -> int64 -> unit
val f64 : Buffer.t -> float -> unit

(** Length-prefixed byte blob. *)
val str : Buffer.t -> string -> unit

val opt : (Buffer.t -> 'a -> unit) -> Buffer.t -> 'a option -> unit
val list : (Buffer.t -> 'a -> unit) -> Buffer.t -> 'a list -> unit

(** {1 Decoding (from a string at a mutable position)} *)

(** Concrete on purpose: WAL replay reads [pos] as the committed end, and
    the snapshot loader skips the magic by assigning it. *)
type reader = { src : string; mutable pos : int }

val reader : string -> reader
val at_end : reader -> bool

(** Raise {!Corrupt} unless [n] more bytes are available. *)
val need : reader -> int -> unit

val g_u8 : reader -> int
val g_u32 : reader -> int
val g_uvarint : reader -> int
val g_varint : reader -> int
val g_i64 : reader -> int64
val g_f64 : reader -> float
val g_str : reader -> string
val g_opt : (reader -> 'a) -> reader -> 'a option
val g_list : (reader -> 'a) -> reader -> 'a list

(** {1 CRC-32} (ISO 3309 / zlib polynomial). [init] chains partial
    checksums: [crc32 ~init:(crc32 a) b = crc32 (a ^ b)]. *)
val crc32 : ?init:int -> string -> int

(** {1 Frames}

    [u32 length][u32 crc][payload], with the CRC covering the length
    bytes {i and} the payload, so a corrupted length field is caught
    too. *)

(** The framed bytes of [payload]; raises [Invalid_argument] for a
    payload of 4 GiB or more. *)
val frame : string -> string

(** Write [s] to [fd] in full. *)
val write_all : Unix.file_descr -> string -> unit

(** Read the frame at the reader's position: [Some payload], advancing
    past it, or [None] on a short or CRC-mismatched frame, leaving the
    position unchanged. *)
val g_frame : reader -> string option
