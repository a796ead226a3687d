(** The database facade: one handle for DDL, SQL/XML, stand-alone XQuery,
    prepared statements, streaming cursors, EXPLAIN and the advisor.

    {[
      let db = Engine.create () in
      ignore (Engine.exec db "CREATE TABLE orders (ordid integer, orddoc XML)");
      ignore (Engine.exec db
        "CREATE INDEX li_price ON orders(orddoc) \
         USING XMLPATTERN '//lineitem/@price' AS DOUBLE");
      let st =
        Engine.prepare db
          "db2-fn:xmlcolumn('ORDERS.ORDDOC')//lineitem[@price > $p]"
      in
      let out = Engine.execute st ~vars:[ ("p", [ Xdm.Item.A (Xdm.Atomic.Double 100.) ]) ] in
      ...
    ]}

    Every statement — prepared or not — goes through a keyed plan cache:
    the compiled front half (parse, static resolution, eligibility
    analysis) is cached under the statement text and validated against
    the catalog generation and a settings fingerprint, so repeated
    {!exec} of the same text amortizes compilation exactly like an
    explicit {!prepare}. DDL and bulk loads invalidate cached plans. *)

(** Re-export: the Tips 1–12 advisor. *)
module Advisor = Advisor

(** Re-export: the LRU plan cache (for its [stats] record). *)
module Plan_cache = Plan_cache

module E = Sqlxml.Sql_exec
module SV = Storage.Sql_value

(** The cached, data-independent front half of a statement. Index
    probing is data-dependent (the planner consults index contents), so
    it happens per execution; what is cached is everything up to it. *)
type compiled_stmt =
  | CSql of Sqlxml.Sql_ast.stmt * int
      (** parsed statement + number of [?] parameter slots *)
  | CXquery of Planner.compiled

(** One published MVCC state: a copy-on-write catalog image plus
    guard-wrapped views of the live indexes, stamped with the commit
    sequence number it reflects. Read transactions pin a snapshot and
    evaluate against it for their whole lifetime; the single writer
    publishes a fresh one at every commit (unchanged tables reuse their
    cached copies — see {!Storage.Table.snapshot}). *)
type snapshot = {
  snap_csn : int;
  snap_db : Storage.Database.t;
  snap_x : Xmlindex.Xindex.t list;  (** snapshot views, ctx (newest-first) order *)
  snap_r : Xmlindex.Rel_index.t list;
}

type t = {
  sqlctx : E.ctx;
  registry : Xprof.Registry.t;
      (** process-lifetime metrics (statement counts, latency histogram,
          cumulative counters), fed after each statement while profiling
          is on; plan-cache and cursor counters accumulate always *)
  cache : compiled_stmt Plan_cache.t;
  mutable dur : Durable.t option;
      (** the data directory behind {!open_db}; [None] = in-memory *)
  (* -- MVCC transaction state -- *)
  mutable committed : snapshot option;
      (** the last published snapshot; guarded by [snap_mu] *)
  mutable csn : int;  (** commit sequence number: bumped per write commit *)
  mutable concurrent : bool;
      (** snapshot-publication mode: off until the first {!Txn.begin_}
          (or the server enables it), so purely sequential embedders pay
          nothing for MVCC *)
  mutable writer_txn : bool;
      (** an explicit read-write transaction holds the writer slot;
          guarded by [snap_mu] *)
  writer_mu : Mutex.t;
      (** the single-writer slot: autocommit writes hold it per
          statement, explicit read-write transactions across their whole
          lifetime *)
  snap_mu : Mutex.t;  (** leaf lock: [committed]/[writer_txn] pointer flips *)
  compile_mu : Mutex.t;
      (** serializes plan-cache lookup + compilation (compilation reads
          the live catalog, and the cache's own lock is a no-op on the
          sequential Xpar backend) *)
  snap_memo_lock : Xpar.Lock.t;
      (** one shared embedded-query memo lock for every snapshot context
          this engine builds, so per-statement contexts don't register
          fresh Lockorder names *)
}

(* Lock-order identities are module-level: every engine's writer slot is
   the same lock from the tracker's point of view, keeping its tables
   small across the many short-lived engines the test suites create.
   Documented order: engine.writer > engine.compile > engine.snapshot
   (a later lock is never taken while holding an earlier one... the
   writer may take compile (DDL) and snapshot (publish); compile and
   snapshot never nest the other way). *)
let writer_lock_id = Xpar.Lockorder.register "engine.writer"
let snap_lock_id = Xpar.Lockorder.register "engine.snapshot"
let compile_lock_id = Xpar.Lockorder.register "engine.compile"

let with_mu id mu f =
  Xpar.Lockorder.acquiring id;
  Mutex.lock mu;
  match f () with
  | v ->
      Mutex.unlock mu;
      Xpar.Lockorder.released id;
      v
  | exception e ->
      Mutex.unlock mu;
      Xpar.Lockorder.released id;
      raise e

(** Transaction-discipline errors: write-write conflicts, writes in a
    read-only transaction, DDL/checkpoint inside an explicit
    transaction, statements on a finished handle. *)
let txn_error fmt = Xdm.Xerror.raise_err "XQDB0007" fmt

let database t = E.database t.sqlctx

let catalog t : Planner.catalog =
  { Planner.db = database t; indexes = E.xml_indexes t.sqlctx }

let mk_engine ?(registry = Xprof.Registry.create ()) db =
  let t =
    {
      sqlctx = E.create db;
      registry;
      cache = Plan_cache.create ();
      dur = None;
      committed = None;
      csn = 0;
      concurrent = false;
      writer_txn = false;
      writer_mu = Mutex.create ();
      snap_mu = Mutex.create ();
      compile_mu = Mutex.create ();
      snap_memo_lock = Xpar.Lock.create ~name:"sqlexec.memo.snapshot" ();
    }
  in
  (* the strict-mode gate: Sql_exec cannot depend on the analyzer, so the
     facade installs it (off until [set_strict_types true]) *)
  E.set_static_check t.sqlctx
    (Some
       (fun ~src stmt ->
         Analysis.Analyze.check_sql ~catalog:(catalog t) ~src stmt));
  t

let create () = mk_engine (Storage.Database.create ())

(** Strict static typing: when on, statements with Error-severity
    diagnostics (e.g. the Query 14 XMLCAST-of-many) are rejected before
    execution. Toggling it changes the settings fingerprint, so cached
    plans compiled under the other mode are recompiled. *)
let set_strict_types t b = E.set_strict_static t.sqlctx b

let strict_types t = E.strict_static t.sqlctx
let xml_indexes t = E.xml_indexes t.sqlctx
let rel_indexes t = E.rel_indexes t.sqlctx

(** Enable/disable index usage (for baselines and A/B benchmarks). *)
let set_use_indexes t b = E.set_use_indexes t.sqlctx b

let use_indexes t = E.use_indexes t.sqlctx

(** Resource budgets applied to every subsequent statement (SQL and
    stand-alone XQuery). Default: {!Xdm.Limits.unlimited}. *)
let set_limits t l = E.set_limits t.sqlctx l

let limits t = E.limits t.sqlctx

(** Parallelism for scan-shaped work (full-collection scans, AND/OR
    candidate-set intersection, bulk load + index build) in subsequent
    statements. Clamped to [1 .. Xpar.max_parallelism]; sizes the
    process-wide domain pool (n - 1 workers — the pool is shared, so the
    last [set_parallelism] on any handle wins). On OCaml 4.x builds the
    sequential Xpar fallback keeps execution single-threaded with
    identical results. *)
let set_parallelism t n =
  let n = max 1 (min n Xpar.max_parallelism) in
  E.set_parallelism t.sqlctx n;
  Xpar.set_parallelism n;
  Xprof.Registry.set_gauge t.registry "parallelism" (float_of_int n)

let parallelism t = E.parallelism t.sqlctx

(* ------------------------------------------------------------------ *)
(* Profiling                                                           *)
(* ------------------------------------------------------------------ *)

(** The per-statement execution profile. While profiling is on, it is
    reset at every statement start; read it right after the statement
    whose profile you want ([Xprof.report]/[Xprof.to_json]). Disabled by
    default — the off path costs one branch per charge site. *)
let profile t : Xprof.t = E.profile t.sqlctx

let set_profiling t b = Xprof.enable (profile t) b
let profiling t = (profile t).Xprof.on

(** Process-lifetime metrics. Statement counters accumulate while
    profiling is on; plan-cache and cursor counters accumulate always
    (they cost one hashtable update per statement, not per row). *)
let registry t : Xprof.Registry.t = t.registry

(** Fold the just-finished statement's profile into the registry. *)
let record_statement t =
  if profiling t then begin
    let p = profile t in
    let r = t.registry in
    Xprof.Registry.incr r "statements_total";
    Xprof.Registry.observe r "statement_ms" (Xprof.total_ms p);
    List.iter
      (fun (name, v) -> Xprof.Registry.incr ~by:v r (name ^ "_total"))
      (Xprof.counters p);
    Xprof.Registry.set_gauge r "xml_indexes"
      (float_of_int (List.length (xml_indexes t)));
    Xprof.Registry.set_gauge r "rel_indexes"
      (float_of_int (List.length (rel_indexes t)))
  end

(** Mirror the lock-order tracker's aggregates into the registry
    ([lock_acquisitions], [lock_order_edges], [lock_order_cycles]), so
    a cycle slipping into production is one scrape away from an alert.
    Called by the shell before printing [\metrics]. *)
let refresh_lock_metrics t =
  let s = Xpar.Lockorder.stats () in
  let r = t.registry in
  Xprof.Registry.set_gauge r "lock_acquisitions"
    (float_of_int s.Xpar.Lockorder.acquisitions);
  Xprof.Registry.set_gauge r "lock_order_edges"
    (float_of_int s.Xpar.Lockorder.edges);
  Xprof.Registry.set_gauge r "lock_order_cycles"
    (float_of_int s.Xpar.Lockorder.cycles)

(* ------------------------------------------------------------------ *)
(* Durability                                                          *)
(* ------------------------------------------------------------------ *)

(** Open (or create) a durable database in [data_dir], running crash
    recovery first: load the live snapshot, replay the committed WAL
    tail, truncate torn/uncommitted records. [sync:false] still writes
    the WAL at every commit but skips the fsync (faster loads, durable
    against process crashes but not power loss). Refuses directories with
    an unrecognized or incompatible on-disk format with [XQDB0005]. *)
let open_db ?(sync = true) ~data_dir () : t =
  let registry = Xprof.Registry.create () in
  let count name = Xprof.Registry.incr registry name in
  let dur, t, redo =
    Durable.open_db ~sync ~count ~data_dir
      ~mk:(fun db xindexes rindexes ->
        let t = mk_engine ~registry db in
        (* ctx index lists are built by consing, newest first; the
           snapshot preserved that order, so attach in reverse *)
        List.iter (E.attach_xml_index t.sqlctx) (List.rev xindexes);
        List.iter (E.attach_rel_index t.sqlctx) (List.rev rindexes);
        t)
      ~apply:(fun t rec_ ->
        match rec_ with
        | Wal.Row (tname, op) ->
            Storage.Table.apply_jop
              (Storage.Database.table_exn (database t) tname)
              op
        | Wal.Ddl text -> ignore (E.exec_string t.sqlctx text)
        | Wal.Begin _ | Wal.Commit _ -> ())
      ()
  in
  Xprof.Registry.incr ~by:redo registry "recovery_redo_records";
  t.dur <- Some dur;
  (* journal every table — current and future (CREATE TABLE) — into the
     WAL; records flow only inside a statement group *)
  Storage.Database.set_table_hook (database t) (Durable.journal_table dur);
  t

(** The data directory behind this handle; [None] for in-memory. *)
let data_dir t = Option.map Durable.data_dir t.dur

(** Run one mutating statement as a WAL group (no-op in-memory and for
    reads). DDL is logged by statement text, DML by the row journal
    records its execution emits. *)
let with_wal t (cls : [ `Read | `Dml | `Ddl ]) ~(src : string option)
    (f : unit -> 'a) : 'a =
  match (t.dur, cls) with
  | None, _ | _, `Read -> f ()
  | Some dur, `Dml -> Durable.statement dur f
  | Some dur, `Ddl -> Durable.statement dur ?ddl:src f

(* ------------------------------------------------------------------ *)
(* MVCC snapshots & the single-writer slot                             *)
(* ------------------------------------------------------------------ *)

(** Build (but do not publish) a snapshot of the current committed
    state. Caller holds the writer slot, so nothing mutates underneath:
    tables are copy-on-write ({!Storage.Table.snapshot} reuses cached
    copies for tables untouched since the last publish), indexes become
    guard-wrapped views sharing the live trees. The guard is the
    process-wide shrink epoch: as long as no index entry has been
    *removed* since this snapshot was taken, a probe against the live
    tree is a sound Definition-1 pre-filter for the snapshot (extra row
    ids from newer inserts are harmless, and only removals could lose
    one). A failed guard degrades the probe to the snapshot table's full
    row-id set — still a superset, never a wrong answer. *)
let build_snapshot t : snapshot =
  let snap_db = Storage.Database.snapshot (database t) in
  let epoch = Storage.Table.shrink_epoch () in
  let guard () = Storage.Table.shrink_epoch () = epoch in
  let all_rows tname () =
    match Storage.Database.find_table snap_db tname with
    | None -> Xdm.Int_set.empty
    | Some tbl ->
        List.fold_left
          (fun acc (r : Storage.Table.row) ->
            Xdm.Int_set.add r.Storage.Table.row_id acc)
          Xdm.Int_set.empty (Storage.Table.rows tbl)
  in
  let snap_x =
    List.map
      (fun (i : Xmlindex.Xindex.t) ->
        Xmlindex.Xindex.snapshot_view i ~guard
          ~fallback:(all_rows i.Xmlindex.Xindex.def.Xmlindex.Xindex.table))
      (xml_indexes t)
  in
  let snap_r =
    List.map
      (fun (i : Xmlindex.Rel_index.t) ->
        Xmlindex.Rel_index.snapshot_view i ~guard
          ~fallback:(all_rows i.Xmlindex.Rel_index.table))
      (rel_indexes t)
  in
  { snap_csn = 0; snap_db; snap_x; snap_r }

(** Publish the current state as the newest committed snapshot. Caller
    holds the writer slot. The csn bump and the pointer flip happen
    together under [snap_mu], so readers always observe a snapshot whose
    stamp matches the engine's csn — in steady concurrent state a reader
    never finds the published snapshot stale. *)
let publish_locked t =
  if t.concurrent then begin
    let s = build_snapshot t in
    with_mu snap_lock_id t.snap_mu (fun () ->
        t.csn <- t.csn + 1;
        t.committed <- Some { s with snap_csn = t.csn });
    Xprof.Registry.incr t.registry "snapshots_published_total"
  end

(** Run [f] holding the autocommit writer slot. Refused (XQDB0007) while
    an explicit read-write transaction owns the slot — queueing behind a
    potentially long transaction would be a silent lock, and the caller
    asked for autocommit. Publishes the resulting state on both success
    and failure: a failed statement's undo rollback also changed table
    versions, so the cached snapshot must be refreshed either way. *)
let autocommit_write t (f : unit -> 'a) : 'a =
  with_mu snap_lock_id t.snap_mu (fun () ->
      if t.writer_txn then
        txn_error
          "write-write conflict: an explicit read-write transaction holds \
           the writer slot");
  with_mu writer_lock_id t.writer_mu (fun () ->
      match f () with
      | v ->
          publish_locked t;
          v
      | exception e ->
          publish_locked t;
          raise e)

(** Switch the engine into snapshot-publication mode (idempotent). Off
    by default so purely sequential embedders never pay for snapshot
    copies; the first {!Txn.begin_} — or the network server at startup —
    turns it on, after which every write commit publishes. *)
let enable_concurrent t =
  if not t.concurrent then begin
    t.concurrent <- true;
    (* publish the initial snapshot under the writer slot *)
    autocommit_write t (fun () -> ())
  end

let concurrent_mode t = t.concurrent

(** Pin the newest committed snapshot. In steady concurrent state this
    is one mutex-protected pointer read; the slow path (no snapshot yet,
    or writes happened before [concurrent] was switched on) takes the
    writer slot once to publish. *)
let rec pin t : snapshot =
  let fresh =
    with_mu snap_lock_id t.snap_mu (fun () ->
        match t.committed with
        | Some s when s.snap_csn = t.csn -> Some s
        | _ -> None)
  in
  match fresh with
  | Some s -> s
  | None ->
      autocommit_write t (fun () -> ());
      pin t

(* ------------------------------------------------------------------ *)
(* Execution environments                                              *)
(* ------------------------------------------------------------------ *)

(** Where a statement runs: an execution context plus the planner
    catalog it should consult. The live environment is the engine's own
    context; snapshot environments are private per-statement (or
    per-cursor) contexts over a pinned snapshot, so concurrent readers
    share nothing mutable with the writer or each other. *)
type exec_env = { ectx : E.ctx; ecat : Planner.catalog }

let live_env t : exec_env = { ectx = t.sqlctx; ecat = catalog t }

(** A private execution context over a pinned snapshot: fresh [E.ctx]
    around the snapshot catalog with the snapshot index views attached,
    inheriting the engine's execution settings (index use, parallelism,
    limits — overridable per call for per-session budgets). Cheap to
    build: the expensive copy-on-write happened at publish time. *)
let read_env ?limits t (snap : snapshot) : exec_env =
  let c = E.create ~memo_lock:t.snap_memo_lock snap.snap_db in
  E.adopt_indexes c ~xml:snap.snap_x ~rel:snap.snap_r;
  E.set_use_indexes c (use_indexes t);
  E.set_parallelism c (parallelism t);
  E.set_limits c (match limits with Some l -> l | None -> E.limits t.sqlctx);
  {
    ectx = c;
    ecat = { Planner.db = snap.snap_db; indexes = snap.snap_x };
  }

(** A private context over the live state (read-your-writes) for a
    cursor: its parameters, meter and EXPLAIN notes are its own, so other
    statements can run on the engine while it is drained. *)
let private_env ?limits t : exec_env =
  let c = E.fork t.sqlctx in
  Option.iter (E.set_limits c) limits;
  { ectx = c; ecat = catalog t }

(** Apply a per-call limits override to a (live) context for the
    duration of [f]. Snapshot contexts are private, so they set limits
    directly; this save/restore is for the engine's own context. *)
let with_limits_override ctx (limits : Xdm.Limits.t option) f =
  match limits with
  | None -> f ()
  | Some l ->
      let saved = E.limits ctx in
      E.set_limits ctx l;
      Fun.protect ~finally:(fun () -> E.set_limits ctx saved) f

(** Write a new-generation snapshot, publish it atomically and truncate
    the WAL. No-op on an in-memory handle. Takes the writer slot (and is
    refused inside an explicit transaction): a checkpoint must capture a
    committed state, not a half-applied one. *)
let checkpoint t =
  (* refused while an explicit transaction holds the writer slot — even
     on an in-memory engine, where it is otherwise a no-op — so the
     discipline does not depend on how the engine was opened *)
  with_mu snap_lock_id t.snap_mu (fun () ->
      if t.writer_txn then
        txn_error "checkpoint is not allowed inside an explicit transaction");
  match t.dur with
  | None -> ()
  | Some dur ->
      autocommit_write t (fun () ->
          Durable.checkpoint dur ~db:(database t)
            ~xindexes:(E.xml_indexes t.sqlctx)
            ~rindexes:(E.rel_indexes t.sqlctx));
      Xprof.Registry.incr t.registry "checkpoints_total"

(** Flush and close the data directory. The handle keeps working as an
    in-memory database afterwards. Idempotent; no-op in-memory. *)
let close t =
  match t.dur with
  | None -> ()
  | Some dur ->
      Durable.close dur;
      t.dur <- None

(** Abandon the durable handle the way a crash would — drop the file
    descriptors without syncing, leaving the in-memory state untouched
    for comparison. Test-only (the recovery torture suite). *)
let simulate_crash t =
  match t.dur with
  | None -> ()
  | Some dur ->
      Durable.simulate_crash dur;
      t.dur <- None

(* ------------------------------------------------------------------ *)
(* Error discipline                                                    *)
(* ------------------------------------------------------------------ *)

(** Every sealed entry point funnels through this wrapper so that only
    [Xdm.Xerror.Error] escapes: layer-private exceptions are re-raised
    under a stable error code. [Faultinject.Injected] is deliberately
    left alone — it is a testing hook, not a query error. *)
let coerce_errors (f : unit -> 'a) : 'a =
  try f () with
  | Sqlxml.Sql_lexer.Sql_syntax_error msg ->
      Xdm.Xerror.syntax_error "%s" msg
  | E.Sql_runtime_error msg -> Xdm.Xerror.dml_error "%s" msg
  | Xmlparse.Xml_parser.Xml_error { pos; msg } ->
      Xdm.Xerror.raise_err "FODC0002"
        "malformed XML document (offset %d): %s" pos msg
  | Failure msg -> Xdm.Xerror.raise_err "XQDB0004" "internal error: %s" msg

(* ------------------------------------------------------------------ *)
(* The plan cache                                                      *)
(* ------------------------------------------------------------------ *)

(* Settings that change what compilation itself produces. Index use and
   limits only affect execution, so they are deliberately absent. *)
let fingerprint t = if strict_types t then "strict" else "lax"

(* Both take the compile lock: the cache's counters and table are
   otherwise mutated concurrently by lookup_compiled. *)
let plan_cache_stats t : Plan_cache.stats =
  with_mu compile_lock_id t.compile_mu (fun () -> Plan_cache.stats t.cache)

(** Drop every cached plan (used by benchmarks to time cold compiles). *)
let reset_plan_cache t =
  with_mu compile_lock_id t.compile_mu (fun () -> Plan_cache.clear t.cache)

(* SQL keywords that can start a statement: when a source fails both
   parsers, report it with the front end it was evidently written for. *)
let looks_like_sql (src : string) : bool =
  let src = String.trim src in
  let n = String.length src in
  let is_word c = ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z') in
  let rec stop i = if i < n && is_word src.[i] then stop (i + 1) else i in
  let w = String.uppercase_ascii (String.sub src 0 (stop 0)) in
  List.mem w
    [ "SELECT"; "VALUES"; "INSERT"; "UPDATE"; "DELETE"; "CREATE"; "DROP";
      "EXPLAIN" ]

(** Compile a statement source: SQL/XML if it parses as SQL, else
    stand-alone XQuery whose free variables become named parameter
    slots. Strict mode runs the static analyzer here — at compile time —
    so cached re-executions don't pay for it again. *)
let compile_stmt t (src : string) : compiled_stmt =
  match Sqlxml.Sql_parser.parse_params src with
  | stmt, nslots ->
      (if strict_types t then
         match E.static_check t.sqlctx with
         | Some check -> check ~src stmt
         | None -> ());
      CSql (stmt, nslots)
  | exception Sqlxml.Sql_lexer.Sql_syntax_error sql_msg -> (
      match Planner.compile src with
      | c ->
          (* parameterized queries are checked per-binding at execute
             time; a closed query gets the full strict gate here *)
          if strict_types t && Planner.compiled_params c = [] then begin
            let q, locs = Xquery.Parser.parse_query_loc src in
            Analysis.Analyze.check_xquery ~catalog:(catalog t) ~locs q
          end;
          CXquery c
      | exception Xdm.Xerror.Error _ when looks_like_sql src ->
          Xdm.Xerror.syntax_error "%s" sql_msg)

(** Fetch the compiled form of [src] from the plan cache, compiling on a
    miss. Returns the compiled statement plus a cache-event diagnostic
    line. *)
let lookup_compiled t (src : string) : compiled_stmt * string =
  (* one statement compiles at a time: compilation reads the live
     catalog, and the cache's own lock is a no-op on the sequential Xpar
     backend. DDL executes under this same lock (inside the writer
     slot), so a concurrent compile never sees a half-applied schema.
     Cache hits stay cheap — the lock outlines only lookup + compile. *)
  with_mu compile_lock_id t.compile_mu @@ fun () ->
  let gen = E.catalog_gen t.sqlctx in
  let fp = fingerprint t in
  let before = Plan_cache.stats t.cache in
  match Plan_cache.find t.cache ~gen ~fp src with
  | Some cs ->
      Xprof.Registry.incr t.registry "plan_cache_hits_total";
      (cs, "plan cache: hit")
  | None ->
      Xprof.Registry.incr t.registry "plan_cache_misses_total";
      let invalidated =
        (Plan_cache.stats t.cache).Plan_cache.invalidations
        > before.Plan_cache.invalidations
      in
      if invalidated then
        Xprof.Registry.incr t.registry "plan_cache_invalidations_total";
      let cs = compile_stmt t src in
      if Plan_cache.add t.cache ~gen ~fp src cs then
        Xprof.Registry.incr t.registry "plan_cache_evictions_total";
      Xprof.Registry.set_gauge t.registry "plan_cache_size"
        (float_of_int (Plan_cache.length t.cache));
      ( cs,
        if invalidated then
          "plan cache: invalidated (catalog or settings changed), recompiled"
        else "plan cache: miss, compiled" )

(* ------------------------------------------------------------------ *)
(* Parameter binding                                                   *)
(* ------------------------------------------------------------------ *)

let plural n = if n = 1 then "" else "s"

let check_sql_arity (nslots : int) (params : SV.t list) vars =
  if vars <> [] then
    Xdm.Xerror.type_error
      "SQL statements take positional (?) parameters; named variable \
       bindings apply to XQuery statements";
  let supplied = List.length params in
  if supplied <> nslots then
    Xdm.Xerror.raise_err "XPDY0002"
      "statement has %d parameter slot%s but %d value%s supplied" nslots
      (plural nslots) supplied (plural supplied)

let check_xquery_bindings (c : Planner.compiled)
    (vars : (string * Xdm.Item.seq) list) (params : SV.t list) =
  if params <> [] then
    Xdm.Xerror.type_error
      "XQuery statements take named ($var) parameters; positional (?) \
       values apply to SQL statements";
  let slots = Planner.compiled_params c in
  List.iter
    (fun (v, _) ->
      if not (List.mem v slots) then
        Xdm.Xerror.undefined
          "unknown parameter $%s (statement declares: %s)" v
          (if slots = [] then "none"
           else String.concat ", " (List.map (fun s -> "$" ^ s) slots)))
    vars;
  List.iter
    (fun s ->
      if not (List.mem_assoc s vars) then
        Xdm.Xerror.raise_err "XPDY0002" "parameter $%s is not bound" s)
    slots

(** Parse a parameter literal the way the shell's [\exec] does: single
    quotes force a string, otherwise integers and doubles are recognized
    numerically. With [~ty], the value is cast (raising the standard
    [FORG0001] on failure). *)
let atomic_of_string ?(ty : Xdm.Atomic.atomic_type option) (s : string) :
    Xdm.Atomic.t =
  let v =
    let n = String.length s in
    if n >= 2 && s.[0] = '\'' && s.[n - 1] = '\'' then
      Xdm.Atomic.Str (String.sub s 1 (n - 2))
    else
      match Int64.of_string_opt s with
      | Some i -> Xdm.Atomic.Integer i
      | None -> (
          match float_of_string_opt s with
          | Some f -> Xdm.Atomic.Double f
          | None -> Xdm.Atomic.Str s)
  in
  match ty with None -> v | Some ty -> Xdm.Atomic.cast v ty

let sql_value_of_string (s : string) : SV.t =
  let n = String.length s in
  if n >= 2 && s.[0] = '\'' && s.[n - 1] = '\'' then
    SV.Varchar (String.sub s 1 (n - 2))
  else
    match Int64.of_string_opt s with
    | Some i -> SV.Int i
    | None -> (
        match float_of_string_opt s with
        | Some f -> SV.Double f
        | None -> SV.Varchar s)

(* ------------------------------------------------------------------ *)
(* Outcomes                                                            *)
(* ------------------------------------------------------------------ *)

type payload =
  | Rows of { cols : string list; rows : SV.t list list }
  | Items of Xdm.Item.seq

type outcome = {
  payload : payload;
  notes : string list;  (** the planner's EXPLAIN trace *)
  indexes_used : string list;
  diagnostics : string list;
      (** engine-level events: plan-cache hit/miss/invalidation, … *)
  profile : Xprof.Json.t option;
      (** snapshot of the statement profile, when profiling is on *)
}

let outcome_rows (o : outcome) : SV.t list list =
  match o.payload with
  | Rows { rows; _ } -> rows
  | Items _ -> Xdm.Xerror.type_error "outcome holds items, not rows"

let outcome_items (o : outcome) : Xdm.Item.seq =
  match o.payload with
  | Items items -> items
  | Rows _ -> Xdm.Xerror.type_error "outcome holds rows, not items"

let profile_snapshot t =
  if profiling t then Some (Xprof.to_json (profile t)) else None

(* ------------------------------------------------------------------ *)
(* Execution of compiled statements                                    *)
(* ------------------------------------------------------------------ *)

(** Statement class for transaction dispatch: XQuery never writes. *)
let class_of (cs : compiled_stmt) : [ `Read | `Dml | `Ddl ] =
  match cs with
  | CSql (stmt, _) -> E.stmt_class stmt
  | CXquery _ -> `Read

(** Run a compiled statement against an environment. [wrap] brackets the
    SQL execution proper — identity for reads and transaction-scoped
    statements, the WAL statement group (plus compile lock for DDL) for
    autocommit writes. *)
let run_env t (env : exec_env) (cs : compiled_stmt)
    ~(wrap : [ `Read | `Dml | `Ddl ] -> (unit -> E.result) -> E.result)
    ~(diag : string) ~(params : SV.t list)
    ~(vars : (string * Xdm.Item.seq) list) : outcome =
  match cs with
  | CSql (stmt, nslots) -> (
      check_sql_arity nslots params vars;
      E.set_params env.ectx (Array.of_list params);
      let fin () = E.set_params env.ectx [||] in
      match wrap (E.stmt_class stmt) (fun () -> E.exec env.ectx stmt) with
      | r ->
          fin ();
          record_statement t;
          {
            payload = Rows { cols = r.E.rcols; rows = r.E.rrows };
            notes = E.last_notes env.ectx;
            indexes_used = E.last_used env.ectx;
            diagnostics = [ diag ];
            profile = profile_snapshot t;
          }
      | exception ex ->
          fin ();
          record_statement t;
          raise ex)
  | CXquery c -> (
      check_xquery_bindings c vars params;
      let prof = E.profile env.ectx in
      Xprof.start_statement prof;
      match
        let items, plan, meter =
          Planner.execute ~limits:(E.limits env.ectx) ~prof
            ~use_indexes:(E.use_indexes env.ectx) ~vars
            ~parallelism:(E.parallelism env.ectx) env.ecat c
        in
        let items =
          Xprof.spanned ~rows:List.length prof "XQUERY" (fun () ->
              List.of_seq items)
        in
        Xprof.set_governor prof (Xdm.Limits.usage meter);
        (items, plan)
      with
      | items, plan ->
          Xprof.finish_statement prof;
          record_statement t;
          {
            payload = Items items;
            notes = plan.Planner.notes;
            indexes_used = plan.Planner.indexes_used;
            diagnostics = [ diag ];
            profile = profile_snapshot t;
          }
      | exception ex ->
          Xprof.finish_statement prof;
          record_statement t;
          raise ex)

(** The WAL-group [wrap] for autocommit writes; caller holds the writer
    slot. DDL additionally takes the compile lock so no statement
    compiles against a half-applied schema. *)
let autocommit_wrap t ~(src : string) (cls : [ `Read | `Dml | `Ddl ])
    (f : unit -> 'a) : 'a =
  match cls with
  | `Ddl ->
      with_mu compile_lock_id t.compile_mu (fun () ->
          with_wal t cls ~src:(Some src) f)
  | `Read | `Dml -> with_wal t cls ~src:(Some src) f

(** Implicit-transaction (autocommit) execution: reads run against the
    newest committed snapshot once the engine is in concurrent mode
    (never blocking behind the writer slot), writes take the writer slot
    for the duration of one statement. *)
let run_implicit t (cs : compiled_stmt) ~(src : string) ~(diag : string)
    ~params ~vars ~(limits : Xdm.Limits.t option) : outcome =
  match class_of cs with
  | `Read ->
      if t.concurrent then
        run_env t (read_env ?limits t (pin t)) cs
          ~wrap:(fun _ f -> f ())
          ~diag ~params ~vars
      else
        with_limits_override t.sqlctx limits (fun () ->
            run_env t (live_env t) cs
              ~wrap:(fun _ f -> f ())
              ~diag ~params ~vars)
  | `Dml | `Ddl ->
      autocommit_write t (fun () ->
          with_limits_override t.sqlctx limits (fun () ->
              run_env t (live_env t) cs ~wrap:(autocommit_wrap t ~src) ~diag
                ~params ~vars))

(* ------------------------------------------------------------------ *)
(* Explicit transactions                                               *)
(* ------------------------------------------------------------------ *)

(** Explicit transaction handles (snapshot isolation, single writer).

    A [Read_only] transaction pins the newest committed snapshot at
    begin and evaluates every statement against it — concurrent commits,
    bulk loads and rollbacks are invisible until the next transaction.
    A [Read_write] transaction owns the engine's single writer slot from
    begin to commit/rollback: its statements run on the live state
    (read-your-writes), journal into one WAL group whose Commit record
    is the durability point, and accumulate one transaction-wide undo
    log so rollback restores rows *and* index entries. A second
    concurrent writer — explicit or autocommit — is refused immediately
    with [XQDB0007] (write-write conflict), not queued. *)
module Txn = struct
  type mode = Read_only | Read_write

  type txn = {
    tx_engine : t;
    tx_mode : mode;
    tx_snap : snapshot option;  (** the pinned snapshot ([Read_only]) *)
    tx_undo : Storage.Undo.t option;
        (** the transaction-wide undo log ([Read_write]) *)
    mutable tx_state : [ `Active | `Committed | `Rolled_back ];
  }

  let mode tx = tx.tx_mode
  let active tx = tx.tx_state = `Active

  let begin_ ?(mode = Read_write) t : txn =
    coerce_errors @@ fun () ->
    enable_concurrent t;
    Xprof.Registry.incr t.registry "txn_begins_total";
    match mode with
    | Read_only ->
        {
          tx_engine = t;
          tx_mode = mode;
          tx_snap = Some (pin t);
          tx_undo = None;
          tx_state = `Active;
        }
    | Read_write ->
        with_mu snap_lock_id t.snap_mu (fun () ->
            if t.writer_txn then
              txn_error
                "write-write conflict: another read-write transaction is \
                 active";
            t.writer_txn <- true);
        (match
           Xpar.Lockorder.acquiring writer_lock_id;
           Mutex.lock t.writer_mu
         with
        | () -> ()
        | exception e ->
            with_mu snap_lock_id t.snap_mu (fun () -> t.writer_txn <- false);
            raise e);
        (* from here the writer slot is ours; anything that raises
           before the handle exists (e.g. an injected WAL fault in
           [Durable.txn_begin]) must give the slot back, or the engine
           is wedged and the lock tracker's held stack leaks *)
        (match
           (match t.dur with Some d -> Durable.txn_begin d | None -> ());
           let undo = Storage.Undo.create () in
           E.set_txn_undo t.sqlctx (Some undo);
           undo
         with
        | undo ->
            {
              tx_engine = t;
              tx_mode = mode;
              tx_snap = None;
              tx_undo = Some undo;
              tx_state = `Active;
            }
        | exception e ->
            E.set_txn_undo t.sqlctx None;
            Mutex.unlock t.writer_mu;
            Xpar.Lockorder.released writer_lock_id;
            with_mu snap_lock_id t.snap_mu (fun () -> t.writer_txn <- false);
            raise e)

  (** Close the transaction. For writers: apply (or roll back) the
      transaction-wide undo log, close the WAL group, publish the
      resulting committed state and release the writer slot — the
      release happens even when the durability step raises (e.g. an
      injected fsync fault), so the engine is never left wedged. *)
  let finish (tx : txn) ~(commit : bool) : unit =
    (match tx.tx_state with
    | `Active -> ()
    | `Committed | `Rolled_back ->
        txn_error "transaction handle is no longer active");
    tx.tx_state <- (if commit then `Committed else `Rolled_back);
    let t = tx.tx_engine in
    match tx.tx_undo with
    | None -> () (* read-only: just unpin the snapshot *)
    | Some undo ->
        Fun.protect
          ~finally:(fun () ->
            publish_locked t;
            Mutex.unlock t.writer_mu;
            Xpar.Lockorder.released writer_lock_id;
            with_mu snap_lock_id t.snap_mu (fun () -> t.writer_txn <- false))
          (fun () ->
            E.set_txn_undo t.sqlctx None;
            if commit then begin
              Storage.Undo.commit undo;
              match t.dur with
              | Some d -> Durable.txn_commit d
              | None -> ()
            end
            else begin
              Storage.Undo.rollback undo;
              match t.dur with
              | Some d -> Durable.txn_abort d
              | None -> ()
            end)

  let commit tx =
    coerce_errors (fun () -> finish tx ~commit:true);
    Xprof.Registry.incr tx.tx_engine.registry "txn_commits_total"

  let rollback tx =
    coerce_errors (fun () -> finish tx ~commit:false);
    Xprof.Registry.incr tx.tx_engine.registry "txn_rollbacks_total"
end

(** Dispatch a statement into an explicit transaction. *)
let run_in_txn t (tx : Txn.txn) (cs : compiled_stmt) ~(diag : string) ~params
    ~vars ~(limits : Xdm.Limits.t option) : outcome =
  if tx.Txn.tx_engine != t then
    txn_error "transaction belongs to a different engine";
  if tx.Txn.tx_state <> `Active then
    txn_error "transaction handle is no longer active";
  match (tx.Txn.tx_mode, class_of cs) with
  | Txn.Read_only, `Read ->
      let snap = Option.get tx.Txn.tx_snap in
      run_env t (read_env ?limits t snap) cs
        ~wrap:(fun _ f -> f ())
        ~diag ~params ~vars
  | Txn.Read_only, (`Dml | `Ddl) ->
      txn_error "read-only transaction cannot execute a write statement"
  | Txn.Read_write, `Ddl ->
      txn_error
        "DDL is not allowed inside an explicit transaction; run it in \
         autocommit"
  | Txn.Read_write, (`Read | `Dml) ->
      (* read-your-writes on the live state; DML journals into the
         transaction's open WAL group, its undo actions are absorbed
         into the transaction-wide log by the executor *)
      with_limits_override t.sqlctx limits (fun () ->
          run_env t (live_env t) cs
            ~wrap:(fun _ f -> f ())
            ~diag ~params ~vars)

(** Execute a statement through the plan cache: compile (or reuse the
    cached compiled form), plan, run. This is the one-shot face of the
    prepared-statement machinery — calling it twice with the same text
    compiles once. Without [?txn] the statement autocommits (reads off
    the newest committed snapshot in concurrent mode, writes under the
    writer slot); with [?txn] it runs inside that transaction. [?limits]
    overrides the engine-level resource budgets for this call only (the
    server uses it for per-session governors). *)
let exec ?(params : SV.t list = []) ?(vars : (string * Xdm.Item.seq) list = [])
    ?(txn : Txn.txn option) ?(limits : Xdm.Limits.t option) t (src : string) :
    outcome =
  coerce_errors (fun () ->
      let cs, diag = lookup_compiled t src in
      match txn with
      | Some tx -> run_in_txn t tx cs ~diag ~params ~vars ~limits
      | None -> run_implicit t cs ~src ~diag ~params ~vars ~limits)

(* ------------------------------------------------------------------ *)
(* Prepared statements                                                 *)
(* ------------------------------------------------------------------ *)

(** A prepared statement is a handle into the plan cache: preparing
    compiles (and caches) the front half now, executing validates the
    cached entry against the current catalog generation — so a statement
    prepared before a [CREATE INDEX] transparently recompiles and picks
    the new index up on its next execution. *)
type stmt = { st_engine : t; st_src : string; st_params : string list }

let prepare t (src : string) : stmt =
  coerce_errors (fun () ->
      let cs, _ = lookup_compiled t src in
      let st_params =
        match cs with
        | CSql (_, n) -> List.init n (fun i -> Printf.sprintf "?%d" (i + 1))
        | CXquery c -> Planner.compiled_params c
      in
      { st_engine = t; st_src = src; st_params })

let stmt_src (s : stmt) = s.st_src

(** Parameter slots, in binding order: ["?1"; "?2"; …] for SQL, variable
    names for XQuery. *)
let stmt_params (s : stmt) = s.st_params

let execute ?(params = []) ?(vars = []) ?txn ?limits (s : stmt) : outcome =
  exec ~params ~vars ?txn ?limits s.st_engine s.st_src

(* ------------------------------------------------------------------ *)
(* Cursors                                                             *)
(* ------------------------------------------------------------------ *)

module Cursor = struct
  (** One result element: a relational row (SQL front end) or an XDM
      item (XQuery front end). *)
  type elem = Row of SV.t list | Item of Xdm.Item.t

  type t = {
    mutable seq : elem Seq.t;
    mutable state : [ `Open | `Drained | `Closed ];
    cols : string list;  (** column names; [[]] for XQuery cursors *)
    registry : Xprof.Registry.t;
    mutable produced : int;
  }

  let columns c = c.cols

  (** Rows/items pulled so far. *)
  let row_count c = c.produced

  (** Release the cursor. Production is lazy, so whatever was not pulled
      is never computed — an early close also stops charging the
      statement's governor budget. Idempotent. *)
  let close c =
    match c.state with
    | `Closed -> ()
    | `Open | `Drained ->
        c.state <- `Closed;
        c.seq <- Seq.empty;
        Xprof.Registry.incr c.registry "cursors_closed_total"

  (** Pull the next element; [None] once drained or closed. Errors that
      surface lazily (resource budget, cast errors deep in a document)
      are raised here, under the same error-code discipline as
      {!Engine.exec}. *)
  let next c : elem option =
    match c.state with
    | `Closed | `Drained -> None
    | `Open -> (
        match coerce_errors (fun () -> c.seq ()) with
        | Seq.Nil ->
            c.state <- `Drained;
            c.seq <- Seq.empty;
            Xprof.Registry.incr c.registry "cursors_closed_total";
            None
        | Seq.Cons (x, rest) ->
            c.seq <- rest;
            c.produced <- c.produced + 1;
            Xprof.Registry.incr c.registry "cursor_rows_total";
            Some x)

  let fold (f : 'a -> elem -> 'a) (acc : 'a) c : 'a =
    let rec go acc = match next c with None -> acc | Some x -> go (f acc x) in
    go acc
end

(** Open a cursor against an environment. Reads get a private
    environment from the caller and stream off it, so their bindings stay
    pinned for the cursor's whole lifetime without blocking anything
    else. Writes materialize at open under [wrap] (as in {!run_env}), so
    any WAL group closes before the cursor is handed back, and leave no
    bindings installed behind them. *)
let cursor_in_env t (env : exec_env) (cs : compiled_stmt)
    ~(wrap :
       [ `Read | `Dml | `Ddl ] ->
       (unit -> string list * SV.t list Seq.t) ->
       string list * SV.t list Seq.t) ~params ~vars : Cursor.t =
  let open_ seq cols =
    { Cursor.seq; state = `Open; cols; registry = t.registry; produced = 0 }
  in
  match cs with
  | CSql (stmt, nslots) ->
      check_sql_arity nslots params vars;
      E.set_params env.ectx (Array.of_list params);
      let cols, rows =
        match E.stmt_class stmt with
        | `Read -> E.exec_seq env.ectx stmt
        | cls ->
            Fun.protect
              ~finally:(fun () -> E.set_params env.ectx [||])
              (fun () -> wrap cls (fun () -> E.exec_seq env.ectx stmt))
      in
      open_ (Seq.map (fun r -> Cursor.Row r) rows) cols
  | CXquery c ->
      check_xquery_bindings c vars params;
      let items, _plan, _meter =
        Planner.execute ~limits:(E.limits env.ectx)
          ~prof:(E.profile env.ectx) ~use_indexes:(E.use_indexes env.ectx)
          ~vars env.ecat c
      in
      open_ (Seq.map (fun i -> Cursor.Item i) items) []

(** Open a streaming cursor over a statement. Rows/items are produced as
    the consumer pulls: a SELECT without a GROUP BY or ORDER BY barrier
    streams straight off the table scan, path- and FLWOR-shaped XQueries
    per document/binding (structural joins included); other statements
    materialize, then stream the result. Every read cursor runs on a
    private context — over a pinned snapshot in concurrent mode or inside
    a read-only [?txn], over the live state otherwise — so its
    parameters stay its own however long the client fetches and whatever
    else runs on the engine meanwhile. *)
let open_cursor ?(params : SV.t list = [])
    ?(vars : (string * Xdm.Item.seq) list = []) ?(txn : Txn.txn option)
    ?(limits : Xdm.Limits.t option) t (src : string) : Cursor.t =
  coerce_errors (fun () ->
      let cs, _ = lookup_compiled t src in
      let live_wrap _cls f = f () in
      let cur =
        match txn with
        | Some tx -> (
            if tx.Txn.tx_engine != t then
              txn_error "transaction belongs to a different engine";
            if tx.Txn.tx_state <> `Active then
              txn_error "transaction handle is no longer active";
            match (tx.Txn.tx_mode, class_of cs) with
            | Txn.Read_only, `Read ->
                cursor_in_env t
                  (read_env ?limits t (Option.get tx.Txn.tx_snap))
                  cs ~wrap:live_wrap ~params ~vars
            | Txn.Read_only, (`Dml | `Ddl) ->
                txn_error
                  "read-only transaction cannot execute a write statement"
            | Txn.Read_write, `Ddl ->
                txn_error
                  "DDL is not allowed inside an explicit transaction; run \
                   it in autocommit"
            | Txn.Read_write, `Read ->
                cursor_in_env t (private_env ?limits t) cs ~wrap:live_wrap
                  ~params ~vars
            | Txn.Read_write, `Dml ->
                (* DML materializes inside exec_seq, journaling into the
                   transaction's open WAL group *)
                with_limits_override t.sqlctx limits (fun () ->
                    cursor_in_env t (live_env t) cs ~wrap:live_wrap ~params
                      ~vars))
        | None -> (
            match class_of cs with
            | `Read when t.concurrent ->
                cursor_in_env t (read_env ?limits t (pin t)) cs
                  ~wrap:live_wrap ~params ~vars
            | `Read ->
                cursor_in_env t (private_env ?limits t) cs ~wrap:live_wrap
                  ~params ~vars
            | `Dml | `Ddl ->
                autocommit_write t (fun () ->
                    with_limits_override t.sqlctx limits (fun () ->
                        cursor_in_env t (live_env t) cs
                          ~wrap:(autocommit_wrap t ~src) ~params ~vars)))
      in
      Xprof.Registry.incr t.registry "cursors_opened_total";
      cur)

let execute_cursor ?(params = []) ?(vars = []) ?txn ?limits (s : stmt) :
    Cursor.t =
  open_cursor ~params ~vars ?txn ?limits s.st_engine s.st_src

(** Serialize a result sequence the way a query shell would. *)
let to_xml (seq : Xdm.Item.seq) : string = Xmlparse.Xml_writer.seq_to_string seq

(* ------------------------------------------------------------------ *)
(* Bulk loading                                                        *)
(* ------------------------------------------------------------------ *)

(** Insert pre-rendered XML documents into [table]; non-XML columns get
    the row number / NULLs. Faster than going through INSERT parsing.
    The whole load is one atomic statement: a failure on the Nth document
    (parse error, injected fault) rolls back every row and index entry
    added so far. A successful load bumps the catalog generation, so
    cached plans (whose index probes reflect the old data) recompile. *)
(* The apply half shared by the load entry points: insert pre-parsed
   documents in row order, single-threaded (undo-log atomicity), ranking
   each root so collection order follows row order even when the trees
   were parsed in parallel and their node ids interleave. *)
let insert_parsed_docs t tbl coli ~log (docs : Xdm.Node.t list) =
  let prof = profile t in
  List.iteri
    (fun i doc ->
      Xprof.row prof;
      Xdm.Node.set_tree_order doc (Xdm.Node.fresh_rank ());
      let values =
        List.mapi
          (fun j (c : Storage.Table.col_def) ->
            if j = coli then SV.Xml [ Xdm.Item.N doc ]
            else
              match c.Storage.Table.col_type with
              | SV.TInt -> SV.Int (Int64.of_int (i + 1))
              | _ -> SV.Null)
          tbl.Storage.Table.cols
      in
      ignore (Storage.Table.insert ~log tbl values))
    docs

let load_documents t ~table ~column (docs : string list) : unit =
  autocommit_write t @@ fun () ->
  with_wal t `Dml ~src:None @@ fun () ->
  let tbl = Storage.Database.table_exn (database t) table in
  let coli = Storage.Table.col_index_exn tbl column in
  let prof = profile t in
  let par = parallelism t in
  let many = match docs with _ :: _ :: _ -> true | _ -> false in
  Xprof.start_statement prof;
  let log = Storage.Undo.create ~prof () in
  match
    Xprof.spanned prof "LOAD" (fun () ->
        if par > 1 && many then begin
          (* chunked parse — the expensive, pure half; the first parse
             error in chunk order is the first bad document in row
             order, and it surfaces before any row is inserted *)
          let slots =
            Xpar.map_chunks ~parallelism:par
              (fun _ chunk ->
                Array.map Xmlparse.Xml_parser.parse_document chunk)
              (Array.of_list docs)
          in
          Xprof.par prof ~chunks:(Array.length slots);
          let parsed =
            List.concat_map Array.to_list (Array.to_list (Xpar.join slots))
          in
          insert_parsed_docs t tbl coli ~log parsed
        end
        else
          List.iteri
            (fun i doc ->
              Xprof.row prof;
              let values =
                List.mapi
                  (fun j (c : Storage.Table.col_def) ->
                    if j = coli then SV.Varchar doc
                    else
                      match c.Storage.Table.col_type with
                      | SV.TInt -> SV.Int (Int64.of_int (i + 1))
                      | _ -> SV.Null)
                  tbl.Storage.Table.cols
              in
              ignore (Storage.Table.insert ~log tbl values))
            docs)
  with
  | () ->
      Storage.Undo.commit log;
      E.bump_catalog_gen t.sqlctx;
      Xprof.finish_statement prof;
      record_statement t
  | exception ex ->
      Storage.Undo.rollback log;
      Xprof.finish_statement prof;
      record_statement t;
      raise ex

(** Load already-parsed documents: the same atomic apply half as
    {!load_documents} with parsing entirely out of the picture — what a
    benchmark's timed region should call when it wants to measure insert
    + index maintenance rather than parsing. *)
let load_parsed_documents t ~table ~column (docs : Xdm.Node.t list) : unit =
  autocommit_write t @@ fun () ->
  with_wal t `Dml ~src:None @@ fun () ->
  let tbl = Storage.Database.table_exn (database t) table in
  let coli = Storage.Table.col_index_exn tbl column in
  let prof = profile t in
  Xprof.start_statement prof;
  let log = Storage.Undo.create ~prof () in
  match
    Xprof.spanned prof "LOAD" (fun () ->
        insert_parsed_docs t tbl coli ~log docs)
  with
  | () ->
      Storage.Undo.commit log;
      E.bump_catalog_gen t.sqlctx;
      Xprof.finish_statement prof;
      record_statement t
  | exception ex ->
      Storage.Undo.rollback log;
      Xprof.finish_statement prof;
      record_statement t;
      raise ex

(** Parse documents (in parallel when parallelism is set), without
    touching any table — pairs with {!load_parsed_documents}. *)
let parse_documents t (docs : string list) : Xdm.Node.t list =
  let par = parallelism t in
  match docs with
  | [] | [ _ ] -> List.map Xmlparse.Xml_parser.parse_document docs
  | _ ->
      Xpar.map_list ~parallelism:par Xmlparse.Xml_parser.parse_document docs

(** Re-derive every XML index's expected entries from its table's current
    documents and diff them against the B+Tree. Returns one
    [(index name, discrepancies)] pair per XML index; all-empty lists mean
    the indexes are exactly consistent with the stored data. *)
let check_consistency t : (string * string list) list =
  List.map
    (fun (idx : Xmlindex.Xindex.t) ->
      let d = idx.Xmlindex.Xindex.def in
      let tbl = Storage.Database.table_exn (database t) d.Xmlindex.Xindex.table in
      let pt = Storage.Table.path_table_exn tbl d.Xmlindex.Xindex.column in
      let docs = Storage.Table.xml_docs tbl d.Xmlindex.Xindex.column in
      ( d.Xmlindex.Xindex.iname,
        Xmlindex.Xindex.check_consistency idx pt docs ))
    (xml_indexes t)

(** Validate every document of an XML column against [schema] in place
    (per-document typing, Section 2.1 of the paper). Returns the number of
    annotated nodes. *)
let validate_column t ~table ~column (schema : Xschema.t) : int =
  (* annotates document nodes in place — writer-side work *)
  autocommit_write t @@ fun () ->
  let tbl = Storage.Database.table_exn (database t) table in
  List.fold_left
    (fun acc (_, doc) -> acc + Xschema.validate schema doc)
    0
    (Storage.Table.xml_docs tbl column)

(* ------------------------------------------------------------------ *)
(* Advice                                                              *)
(* ------------------------------------------------------------------ *)

(** Run the codified Tips 1–12 advisor on a statement (auto-detects SQL vs
    stand-alone XQuery by attempting the SQL parser first). *)
let advise t (src : string) : Advisor.advice list =
  Advisor.advise ~catalog:(catalog t) src

(* ------------------------------------------------------------------ *)
(* Static analysis                                                     *)
(* ------------------------------------------------------------------ *)

(** Run the full static analyzer (type & cardinality checks, path
    checks, and every lint rule) on a statement. Never raises: syntax
    errors come back as diagnostics. *)
let analyze t (src : string) : Analysis.Diag.t list =
  Analysis.Analyze.analyze_string ~catalog:(catalog t) src
