(** Write-ahead log.

    Every mutating statement appends one *group* of records:

    {v Begin(seq) · [Row | Ddl]* · Commit(seq) v}

    and only the Commit makes the group durable: replay applies a group
    iff its Commit record survived intact, so a crash anywhere inside a
    statement recovers to the pre-statement state — the WAL-level mirror
    of the in-memory per-statement undo log.

    Each record is one {!Codec.frame} ([u32 length][u32 crc][payload],
    the CRC covering the length bytes *and* the payload), so a torn or
    bit-flipped tail — even one corrupting the length field itself — is
    detected and replay stops at the last intact record. *)

(** Re-exports, so library users see [Wal.Snapshot] / [Wal.Vcodec] /
    [Wal.Codec]. *)
module Snapshot = Snapshot

module Vcodec = Vcodec
module Codec = Codec

type record =
  | Begin of int  (** statement sequence number *)
  | Commit of int
  | Ddl of string  (** statement text, re-executed on replay *)
  | Row of string * Storage.Table.jop  (** table name, row redo record *)

val encode_record : record -> string
val decode_record : string -> record

(** {1 The log writer} *)

type t

(** Open [path] for appending, truncated to [keep] bytes first (the end
    of the last committed record found by {!replay}); pass [keep = 0]
    for a fresh log. [sync:false] skips the per-commit fsync (still
    durable against same-process crashes). [count] is the Xprof counter
    hook ([wal_appends], [wal_fsyncs]). *)
val open_log : ?sync:bool -> ?count:(string -> unit) -> ?keep:int -> string -> t

(** Append one record (no durability guarantee until {!commit}). *)
val append : t -> record -> unit

(** Append [Commit seq] and (in [sync] mode) fsync — the commit point of
    the enclosing statement. *)
val commit : t -> int -> unit

(** Flush to stable storage regardless of the [sync] mode (clean
    shutdown). *)
val sync_log : t -> unit

val close : t -> unit

(** {1 Replay} *)

type replay_result = {
  committed_end : int;
      (** byte offset just after the last committed record; the tail
          beyond it is garbage (torn writes, uncommitted groups) and is
          truncated by the next {!open_log} *)
  redo_records : int;  (** row/DDL records applied *)
  statements : int;  (** committed groups applied *)
}

(** Scan the log at [path], applying every record of every *committed*
    group, in log order, via [apply]. Corrupt or torn records end the
    scan; an uncommitted trailing group is skipped entirely. *)
val replay : ?apply:(record -> unit) -> string -> replay_result
