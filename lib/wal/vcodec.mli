(** Binary codecs for catalog values: SQL values, XDM atomics, qualified
    names and path steps. Shared by the WAL record format ({!Wal}) and
    the snapshot format ({!Snapshot}).

    XML values are stored as serialized document text and re-parsed on
    load; node identities are therefore *not* stable across a save/load
    cycle, which is why index entries carry document-order ordinals on
    disk (see {!Snapshot}).

    Encoders write into a [Buffer]; [g_]-prefixed decoders read from a
    {!Codec.reader} and raise [Codec.Corrupt] on malformed input. *)

val qname : Buffer.t -> Xdm.Qname.t -> unit
val g_qname : Codec.reader -> Xdm.Qname.t
val step : Buffer.t -> Xdm.Node.path_step -> unit
val g_step : Codec.reader -> Xdm.Node.path_step
val atomic : Buffer.t -> Xdm.Atomic.t -> unit
val g_atomic : Codec.reader -> Xdm.Atomic.t
val sqltype : Buffer.t -> Storage.Sql_value.sqltype -> unit
val g_sqltype : Codec.reader -> Storage.Sql_value.sqltype
val item : Buffer.t -> Xdm.Item.t -> unit
val g_item : Codec.reader -> Xdm.Item.t
val sql_value : Buffer.t -> Storage.Sql_value.t -> unit
val g_sql_value : Codec.reader -> Storage.Sql_value.t
val row : Buffer.t -> Storage.Table.row -> unit
val g_row : Codec.reader -> Storage.Table.row
