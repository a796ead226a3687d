(** The durable data directory behind {!Engine.open_db}: MANIFEST,
    generation-numbered snapshots and write-ahead logs, checkpointing and
    crash recovery. See docs/DURABILITY.md for the on-disk format and the
    recovery algorithm. *)

(** A live data directory: the open WAL plus the generation it belongs
    to. One handle per directory; the engine facade owns it. *)
type t

(** The data-directory format this build reads/writes ([1]). Mismatches
    are refused with the coded error [XQDB0005]. *)
val format_version : int

val data_dir : t -> string
val generation : t -> int

(** [open_db ~data_dir ~mk ~apply ()] opens (or initializes) a data
    directory and runs crash recovery:

    - resolve the live generation from the MANIFEST (creating the
      directory at generation 0 when missing/empty; refusing a foreign
      directory or an incompatible format version with [XQDB0005]);
    - remove orphan files from a crashed checkpoint;
    - load the live snapshot, when one exists;
    - [mk db xindexes rindexes] builds the caller's execution context
      around the recovered catalog (attaching the loaded indexes);
    - replay the live WAL's committed statement groups through
      [apply ctx], in log order;
    - reopen the WAL for appending, truncating the torn/uncommitted tail.

    Returns the handle, the context built by [mk], and the number of redo
    records applied (the [recovery_redo_records] counter).

    [sync] selects fsync-on-commit (default [true]); [count] receives the
    durability counters ([wal_appends], [wal_fsyncs]). *)
val open_db :
  ?sync:bool ->
  ?count:(string -> unit) ->
  data_dir:string ->
  mk:
    (Storage.Database.t ->
    Xmlindex.Xindex.t list ->
    Xmlindex.Rel_index.t list ->
    'ctx) ->
  apply:('ctx -> Wal.record -> unit) ->
  unit ->
  t * 'ctx * int

(** Run one mutating statement as a WAL group: append [Begin], run [f]
    (row journal records flow to the log while it runs), then — on
    success — append the optional [ddl] statement-text record and the
    [Commit], fsyncing in [sync] mode. If [f] raises, the group is left
    uncommitted and replay will skip it. *)
val statement : t -> ?ddl:string -> (unit -> 'a) -> 'a

(** Wire a table's row journal into the WAL. Records are appended only
    inside a {!statement} group, so recovery replay and undo rollback
    stay silent. *)
val journal_table : t -> Storage.Table.t -> unit

(** Explicit transactions: one WAL group spanning many statements.
    {!txn_begin} opens the group (caller holds the engine's writer
    slot, so no other group can interleave); every DML statement until
    the close journals into it. {!txn_commit} appends the Commit record
    (the transaction's durability point — a crash before it recovers to
    the transaction never having happened, never to a partial one).
    {!txn_abort} leaves the group uncommitted, which replay abandons. *)
val txn_begin : t -> unit

val txn_commit : t -> unit
val txn_abort : t -> unit

(** Write a new-generation snapshot of the catalog, atomically publish it
    via the MANIFEST, start a fresh WAL and remove the old generation's
    files. Fault points ["checkpoint.begin"] / ["checkpoint.end"] bracket
    the danger zone. *)
val checkpoint :
  t ->
  db:Storage.Database.t ->
  xindexes:Xmlindex.Xindex.t list ->
  rindexes:Xmlindex.Rel_index.t list ->
  unit

(** Flush and close the WAL. Idempotent. *)
val close : t -> unit

(** Abandon the handle the way a crash would: drop the file descriptors
    without syncing. Test-only. *)
val simulate_crash : t -> unit
