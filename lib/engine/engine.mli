(** The sealed database API: one handle for DDL, SQL/XML, stand-alone
    XQuery, prepared statements, streaming cursors, EXPLAIN and the
    advisor.

    This interface is the engine's whole public surface; the handle and
    statement types are abstract, so every interaction — including
    settings — goes through the functions below. Statement compilation
    (parse, static resolution, eligibility analysis) is cached in a keyed
    plan cache validated against the catalog generation, so repeated
    {!exec} of the same text amortizes exactly like an explicit
    {!prepare}; DDL and bulk loads invalidate cached plans.

    Error discipline: the sealed entry points ({!prepare}, {!exec},
    {!execute}, {!open_cursor}, {!Cursor.next}) raise only
    [Xdm.Xerror.Error] with a stable code — [XPST0003] syntax,
    [XPST0008] unknown names, [XPDY0002] missing parameter bindings,
    [FORG0001] bad casts, [XQDB0001] resource budget, [XQDB0003]
    runtime/value errors, [FODC0002] malformed documents, [XQDB0004]
    internal faults, [XQDB0007] transaction discipline (write-write
    conflicts, writes in a read-only transaction, DDL or checkpoint
    inside an explicit transaction). *)

(** Re-export: the Tips 1–12 advisor. *)
module Advisor = Advisor

(** Re-export: the LRU plan cache (for its [stats] record). *)
module Plan_cache = Plan_cache

(** A database handle: storage, indexes, settings, plan cache and
    metrics. *)
type t

val create : unit -> t

(** {1 Durability}

    {!create} gives an in-memory database — the default, and what every
    benchmark and test uses unless it opts in. {!open_db} binds the
    handle to a data directory with a CRC-framed snapshot and a
    write-ahead log: every mutating statement (DML, DDL, bulk loads) is
    logged as one WAL group and committed records survive a crash —
    reopening the directory replays the committed tail and truncates
    torn garbage. See docs/DURABILITY.md for the on-disk format and
    recovery algorithm. *)

(** Open (or create) a durable database in [data_dir], running crash
    recovery first. [sync] (default [true]) fsyncs the WAL at every
    commit; [sync:false] still writes each commit to the file (durable
    against process crashes) but skips the fsync. Raises [XQDB0005] on an
    unrecognized or incompatible on-disk format. *)
val open_db : ?sync:bool -> data_dir:string -> unit -> t

(** The data directory behind this handle; [None] for in-memory. *)
val data_dir : t -> string option

(** Write a new-generation snapshot of the whole catalog, publish it
    atomically (tmp-file + rename of the MANIFEST) and start a fresh WAL.
    Bounds recovery time; the shell exposes it as [\checkpoint]. No-op on
    an in-memory handle. Takes the writer slot; refused with [XQDB0007]
    while an explicit read-write transaction is active. *)
val checkpoint : t -> unit

(** Flush and close the data directory; the handle keeps working as an
    in-memory database afterwards. Idempotent; no-op in-memory. *)
val close : t -> unit

(** Abandon the durable handle the way a crash would: drop the file
    descriptors without syncing, leaving in-memory state untouched for
    comparison. Test-only — the recovery torture suite's crash lever. *)
val simulate_crash : t -> unit

(** {1 Settings} *)

(** Strict static typing: when on, statements with Error-severity
    diagnostics (e.g. the Query 14 XMLCAST-of-many) are rejected at
    compile time. Toggling it changes the plan-cache fingerprint, so
    plans compiled under the other mode recompile. *)
val set_strict_types : t -> bool -> unit

val strict_types : t -> bool

(** Enable/disable index usage (for baselines and A/B benchmarks). *)
val set_use_indexes : t -> bool -> unit

val use_indexes : t -> bool

(** Resource budgets applied to every subsequent statement. Default:
    {!Xdm.Limits.unlimited}. *)
val set_limits : t -> Xdm.Limits.t -> unit

val limits : t -> Xdm.Limits.t

(** Parallelism for scan-shaped work in subsequent statements:
    partitioned full-collection scans, multi-index AND/OR candidate-set
    intersection, and bulk load + index builds. Clamped to
    [1 .. Xpar.max_parallelism]; sizes the process-wide worker-domain
    pool (shared across handles — the last setting wins). Results are
    deterministic: chunked execution merges in chunk order, so output,
    diagnostics and [indexes_used] are identical at any parallelism
    level (the t_par_diff harness proves this). Cursors always stream
    sequentially; governor budgets are charged atomically across
    domains, so [XQDB0001] still fires. On OCaml 4.x builds the
    sequential Xpar fallback keeps execution single-threaded. *)
val set_parallelism : t -> int -> unit

val parallelism : t -> int

(** {1 Introspection} *)

val database : t -> Storage.Database.t
val catalog : t -> Planner.catalog
val xml_indexes : t -> Xmlindex.Xindex.t list
val rel_indexes : t -> Xmlindex.Rel_index.t list

(** {1 Profiling & metrics} *)

(** The per-statement execution profile (reset at each statement start
    while profiling is on). *)
val profile : t -> Xprof.t

val set_profiling : t -> bool -> unit
val profiling : t -> bool

(** Process-lifetime metrics. Statement counters accumulate while
    profiling is on; plan-cache ([plan_cache_hits_total], …) and cursor
    counters accumulate always. *)
val registry : t -> Xprof.Registry.t

(** Mirror the lock-order tracker's process-wide aggregates into the
    registry as gauges: [lock_acquisitions], [lock_order_edges] and
    [lock_order_cycles] (a non-zero cycle count is a potential deadlock
    — see docs/CONCURRENCY.md and the shell's [\xsan] report). *)
val refresh_lock_metrics : t -> unit

(** {1 Outcomes} *)

(** One statement result: relational rows (SQL front end) or an XDM item
    sequence (XQuery front end). *)
type payload =
  | Rows of { cols : string list; rows : Storage.Sql_value.t list list }
  | Items of Xdm.Item.seq

(** The structured result every sealed entry point returns. *)
type outcome = {
  payload : payload;
  notes : string list;  (** the planner's EXPLAIN trace *)
  indexes_used : string list;
  diagnostics : string list;
      (** engine-level events: plan-cache hit/miss/invalidation, … *)
  profile : Xprof.Json.t option;
      (** snapshot of the statement profile, when profiling is on *)
}

(** Convenience projections; raise [XPTY0004] on the wrong payload. *)
val outcome_rows : outcome -> Storage.Sql_value.t list list

val outcome_items : outcome -> Xdm.Item.seq

(** {1 Transactions}

    The engine is a single-writer, multi-reader MVCC system with
    snapshot isolation (see docs/TRANSACTIONS.md):

    - A [Read_only] transaction pins the newest committed snapshot at
      {!Txn.begin_} and evaluates every statement against it. It never
      blocks — not behind autocommit writes, not behind a concurrent
      bulk load in a read-write transaction — and never sees a
      half-applied write.
    - A [Read_write] transaction (the default mode) owns the engine's
      single writer slot from begin to commit/rollback. Its statements
      see their own writes; on a durable handle they journal into one
      WAL group whose Commit record is the durability point (a crash
      mid-transaction recovers to the transaction never having
      happened). {!Txn.rollback} restores rows and index entries from
      the transaction-wide undo log.
    - A second concurrent writer — explicit or autocommit — is refused
      immediately with [XQDB0007] (write-write conflict), not queued.
      DDL and {!checkpoint} inside an explicit transaction are refused
      with the same code.

    Statements without a [?txn] argument autocommit, exactly as before
    this API existed — existing callers compile and behave unchanged. *)

module Txn : sig
  (** [Read_only] pins a snapshot; [Read_write] (default) takes the
      writer slot. *)
  type mode = Read_only | Read_write

  (** A transaction handle. Not thread-safe itself: one session drives
      one handle. *)
  type txn

  (** Start a transaction. Raises [XQDB0007] if [Read_write] and another
      read-write transaction is active on this engine. The first
      [begin_] on an engine switches it into concurrent (snapshot
      publication) mode. *)
  val begin_ : ?mode:mode -> t -> txn

  (** Commit: for writers, make the transaction's effects the newest
      committed state (durable once the WAL Commit record is synced) and
      release the writer slot. Raises [XQDB0007] on a finished handle. *)
  val commit : txn -> unit

  (** Roll back: undo every row and index change the transaction made
      (writers), release the writer slot. The WAL group is left
      uncommitted, which recovery abandons. *)
  val rollback : txn -> unit

  val mode : txn -> mode
  val active : txn -> bool
end

(** Switch the engine into concurrent (snapshot publication) mode now,
    without starting a transaction: after this, implicit (autocommit)
    reads run against the newest committed snapshot instead of the live
    state, so they never block behind the writer slot. Idempotent; the
    network server calls it at startup. *)
val enable_concurrent : t -> unit

val concurrent_mode : t -> bool

(** {1 Execution} *)

(** Execute a statement (SQL/XML if it parses as SQL, else stand-alone
    XQuery) through the plan cache. [params] binds SQL [?] slots in
    order; [vars] binds XQuery [$var] parameter slots. [txn] runs the
    statement inside an explicit transaction (autocommit otherwise);
    [limits] overrides the engine-level resource budgets for this call
    only (per-session governors). *)
val exec :
  ?params:Storage.Sql_value.t list ->
  ?vars:(string * Xdm.Item.seq) list ->
  ?txn:Txn.txn ->
  ?limits:Xdm.Limits.t ->
  t ->
  string ->
  outcome

(** {1 Prepared statements} *)

(** A prepared statement: a handle into the plan cache. The compiled
    front half survives across executions; if DDL or a load invalidates
    it, the next execution transparently recompiles (and re-plans
    against the new catalog). *)
type stmt

(** Compile (and cache) a statement now. In an XQuery, every free
    variable becomes a named parameter slot; in SQL, each [?] becomes a
    positional slot. *)
val prepare : t -> string -> stmt

val stmt_src : stmt -> string

(** Parameter slots in binding order: ["?1"; "?2"; …] for SQL, variable
    names (without [$]) for XQuery. *)
val stmt_params : stmt -> string list

(** Execute a prepared statement under parameter bindings. All slots
    must be bound ([XPDY0002] otherwise); unknown names are rejected
    ([XPST0008]). *)
val execute :
  ?params:Storage.Sql_value.t list ->
  ?vars:(string * Xdm.Item.seq) list ->
  ?txn:Txn.txn ->
  ?limits:Xdm.Limits.t ->
  stmt ->
  outcome

(** {1 Cursors} *)

module Cursor : sig
  (** One result element: a relational row or an XDM item. *)
  type elem = Row of Storage.Sql_value.t list | Item of Xdm.Item.t

  type t

  (** Column names ([[]] for XQuery cursors). *)
  val columns : t -> string list

  (** Rows/items pulled so far. *)
  val row_count : t -> int

  (** Pull the next element; [None] once drained or closed. Lazily
      surfacing errors (resource budget, cast errors deep in a
      document) are raised here, coded like {!Engine.exec}'s. *)
  val next : t -> elem option

  val fold : ('a -> elem -> 'a) -> 'a -> t -> 'a

  (** Release the cursor. Production is lazy, so unpulled results are
      never computed — an early close also stops charging the
      statement's governor budget. Idempotent. *)
  val close : t -> unit
end

(** Open a streaming cursor: results are produced as the consumer pulls.
    A SELECT without a GROUP BY or ORDER BY barrier streams off the table
    scan; path- and FLWOR-shaped XQueries stream per document/binding,
    structural joins included; other statements materialize, then
    stream the result.

    Every read cursor runs on a private context — over a pinned snapshot
    in concurrent mode or inside a read-only [?txn], over the live state
    otherwise — so its parameter bindings are its own: other statements,
    parameterized or not, may run on the engine while it is open. A
    snapshot cursor also stays consistent however long the client
    fetches, regardless of concurrent commits. *)
val open_cursor :
  ?params:Storage.Sql_value.t list ->
  ?vars:(string * Xdm.Item.seq) list ->
  ?txn:Txn.txn ->
  ?limits:Xdm.Limits.t ->
  t ->
  string ->
  Cursor.t

val execute_cursor :
  ?params:Storage.Sql_value.t list ->
  ?vars:(string * Xdm.Item.seq) list ->
  ?txn:Txn.txn ->
  ?limits:Xdm.Limits.t ->
  stmt ->
  Cursor.t

(** {1 Plan cache} *)

val plan_cache_stats : t -> Plan_cache.stats

(** Drop every cached plan (used by benchmarks to time cold compiles). *)
val reset_plan_cache : t -> unit

(** {1 Parameter literals} *)

(** Parse a parameter literal: single quotes force a string; otherwise
    integers, then doubles, are recognized numerically. With [~ty] the
    value is cast, raising the standard [FORG0001] on failure. *)
val atomic_of_string :
  ?ty:Xdm.Atomic.atomic_type -> string -> Xdm.Atomic.t

val sql_value_of_string : string -> Storage.Sql_value.t

(** {1 Bulk loading & maintenance} *)

(** Insert pre-rendered XML documents into [table]; non-XML columns get
    the row number / NULLs. Atomic: a failure on the Nth document rolls
    back every row and index entry added so far. A successful load bumps
    the catalog generation, invalidating cached plans. *)
val load_documents : t -> table:string -> column:string -> string list -> unit

(** Like {!load_documents}, but for documents parsed up front (e.g. with
    {!parse_documents}): the timed half of a load benchmark, measuring
    insert + index maintenance without parsing. The apply phase is
    single-threaded in row order regardless of parallelism, keeping
    undo-log atomicity and collection order identical to a sequential
    load. *)
val load_parsed_documents :
  t -> table:string -> column:string -> Xdm.Node.t list -> unit

(** Parse documents — in parallel chunks when {!set_parallelism} > 1 —
    without touching any table. Raises on the first malformed document
    in list order. *)
val parse_documents : t -> string list -> Xdm.Node.t list

(** Re-derive every XML index's expected entries and diff them against
    the B+Tree; all-empty lists mean the indexes are consistent. *)
val check_consistency : t -> (string * string list) list

(** Validate every document of an XML column against [schema] in place;
    returns the number of annotated nodes. *)
val validate_column : t -> table:string -> column:string -> Xschema.t -> int

(** {1 Advice & analysis} *)

(** Run the codified Tips 1–12 advisor on a statement. *)
val advise : t -> string -> Advisor.advice list

(** Run the full static analyzer on a statement; never raises. *)
val analyze : t -> string -> Analysis.Diag.t list

(** Serialize a result sequence the way a query shell would. *)
val to_xml : Xdm.Item.seq -> string
