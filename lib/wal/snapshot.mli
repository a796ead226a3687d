(** Checkpoint snapshots: the full catalog (tables, rows, path tables,
    XML and relational indexes) as one plain file.

    Layout: the header [magic, u32 format version], then one
    {!Codec.frame} per catalog entry (each table, each XML index, each
    relational index, and last a structural-definition list, written
    empty and ignored on load).
    Recovery = load the snapshot, then replay the WAL tail on top.

    Node identity does not survive serialization: XML values are stored
    as document text and re-parsed on load, so index entries go to disk
    keyed by the node's document-order ordinal within its row and are
    remapped to fresh node ids by the loader. *)

val magic : string
val format_version : int

(** Write a full snapshot of [db] (plus indexes) to [path], truncating
    any previous file, and fsync it. *)
val save :
  path:string ->
  Storage.Database.t ->
  Xmlindex.Xindex.t list ->
  Xmlindex.Rel_index.t list ->
  unit

(** Load a snapshot, all or nothing: raises a coded [XQDB0005] error on
    an unrecognized or incompatible format, on any bad (short or
    CRC-mismatched) frame, a short file or trailing bytes, and on
    structural corruption. Structural-index definitions written by older
    builds are read and dropped. *)
val load :
  path:string ->
  unit ->
  Storage.Database.t * Xmlindex.Xindex.t list * Xmlindex.Rel_index.t list
