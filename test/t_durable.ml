(** Durable storage: snapshot + WAL round-trips, checkpointing, and the
    fault-injected crash-recovery torture suite.

    The torture suite's invariant: crash the engine (abandon in-memory
    state, drop file descriptors without syncing) at *every* registered
    fault point during bulk loads, UPDATEs and CREATE INDEX backfills;
    reopening the data directory must yield a database that

    - passes {!Engine.check_consistency} with no discrepancies, and
    - is byte-identical (tables, row ids, values, index entry counts) to
      a never-crashed in-memory run of exactly the statements that
      committed.

    A fault that lands between a statement's in-memory commit and its WAL
    commit record reaching the log (e.g. an injected [wal.fsync]) is the
    classic ambiguous-commit window: the statement is allowed to be
    either in or out, but never half-applied — the recovered state must
    match the reference either without or with that one statement. *)

open Helpers

(* ------------------------------------------------------------------ *)
(* Scratch data directories                                            *)
(* ------------------------------------------------------------------ *)

let dir_ctr = ref 0

let fresh_dir () =
  incr dir_ctr;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "xqdb-test-%d-%d.xqdb" (Unix.getpid ()) !dir_ctr)

let rec rm_rf path =
  match Sys.is_directory path with
  | exception Sys_error _ -> ()
  | true ->
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | false -> ( try Sys.remove path with Sys_error _ -> ())

let with_dir f =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* ------------------------------------------------------------------ *)
(* Canonical state dumps                                               *)
(* ------------------------------------------------------------------ *)

(** Render the engine's whole logical state — every table's rows (with
    row ids) plus every index's entry count — as one comparable string.
    XML values round-trip through the serializer, so the rendering is
    stable across save/load cycles even though node ids are not. *)
let state db =
  let b = Buffer.create 4096 in
  let tables =
    List.sort
      (fun (a : Storage.Table.t) b -> compare a.Storage.Table.name b.Storage.Table.name)
      (Storage.Database.tables (Engine.database db))
  in
  List.iter
    (fun (t : Storage.Table.t) ->
      Buffer.add_string b ("== " ^ t.Storage.Table.name ^ "\n");
      List.iter
        (fun (r : Storage.Table.row) ->
          Buffer.add_string b (string_of_int r.Storage.Table.row_id);
          Array.iter
            (fun v ->
              Buffer.add_char b '|';
              Buffer.add_string b (Storage.Sql_value.to_display v))
            r.Storage.Table.values;
          Buffer.add_char b '\n')
        (List.sort
           (fun (a : Storage.Table.row) b ->
             compare a.Storage.Table.row_id b.Storage.Table.row_id)
           (Storage.Table.rows t)))
    tables;
  List.iter
    (fun (i : Xmlindex.Xindex.t) ->
      Buffer.add_string b
        (Printf.sprintf "xidx %s %d\n"
           i.Xmlindex.Xindex.def.Xmlindex.Xindex.iname
           (Xmlindex.Xindex.entry_count i)))
    (List.sort
       (fun (a : Xmlindex.Xindex.t) b ->
         compare a.Xmlindex.Xindex.def.Xmlindex.Xindex.iname
           b.Xmlindex.Xindex.def.Xmlindex.Xindex.iname)
       (Engine.xml_indexes db));
  List.iter
    (fun (i : Xmlindex.Rel_index.t) ->
      Buffer.add_string b
        (Printf.sprintf "ridx %s %d\n" i.Xmlindex.Rel_index.iname
           (Xmlindex.Rel_index.entry_count i)))
    (List.sort
       (fun (a : Xmlindex.Rel_index.t) b ->
         compare a.Xmlindex.Rel_index.iname b.Xmlindex.Rel_index.iname)
       (Engine.rel_indexes db));
  Buffer.contents b

let assert_consistent db =
  List.iter
    (fun (iname, diffs) ->
      check Alcotest.(list string) (iname ^ " consistent") [] diffs)
    (Engine.check_consistency db)

let counter db name = !(Xprof.Registry.counter (Engine.registry db) name)

(* ------------------------------------------------------------------ *)
(* Workloads: named statement sequences                                *)
(* ------------------------------------------------------------------ *)

let sqlop s = (s, fun db -> ignore (sql db s))

(* Fat documents make the checkpoint's snapshot a table entry of ~280 KB,
   so crashes and recovery cover a multi-hundred-kilobyte frame, not just
   small ones. *)
let pad = String.make 2800 'x'
let fat_doc i = Printf.sprintf "<a><p>%d</p><q>%s</q></a>" i pad

let bulk_load_ops =
  [
    sqlop "CREATE TABLE t (a integer, d XML)";
    sqlop "CREATE INDEX ip ON t(d) USING XMLPATTERN '//p' AS DOUBLE";
    ( "bulk load 100 fat docs",
      fun db ->
        Engine.load_documents db ~table:"t" ~column:"d"
          (List.init 100 fat_doc) );
    ("checkpoint", Engine.checkpoint);
    ( "load 10 more",
      fun db ->
        Engine.load_documents db ~table:"t" ~column:"d"
          (List.init 10 (fun i -> Printf.sprintf "<a><p>%d</p></a>" (500 + i)))
    );
  ]

let update_ops =
  [
    sqlop "CREATE TABLE t (a integer, d XML)";
    sqlop "CREATE INDEX ip ON t(d) USING XMLPATTERN '//p' AS DOUBLE";
    ( "load 25 docs",
      fun db ->
        Engine.load_documents db ~table:"t" ~column:"d"
          (List.init 25 (fun i -> Printf.sprintf "<a><p>%d</p></a>" i)) );
    ("checkpoint", Engine.checkpoint);
    sqlop
      "UPDATE t SET d = XMLQUERY('<a><p>{$D/a/p + 1000}</p></a>' PASSING d \
       AS \"D\")";
    sqlop "UPDATE t SET a = 777 WHERE a = 3";
  ]

let backfill_ops =
  [
    sqlop "CREATE TABLE t (a integer, d XML)";
    ( "load 60 docs",
      fun db ->
        Engine.load_documents db ~table:"t" ~column:"d"
          (List.init 60 (fun i ->
               Printf.sprintf "<a><p>%d</p><p>%d</p></a>" i (i + 1000))) );
    ("checkpoint", Engine.checkpoint);
    sqlop "CREATE INDEX ip2 ON t(d) USING XMLPATTERN '//p' AS DOUBLE";
    sqlop "INSERT INTO t VALUES (999, '<a><p>999</p></a>')";
  ]

(** State after running the first [k] operations (plus, with [extra],
    the (k+1)th) on a fresh in-memory engine that never faults. *)
let reference ops k extra =
  let db = Engine.create () in
  List.iteri (fun i (_, f) -> if i < k || (extra && i = k) then f db) ops;
  state db

(* Which fault points actually fired somewhere in the sweep: the
   coverage assertion at the end of the suite proves no registered point
   was a dead letter. *)
let fired : (string, unit) Hashtbl.t = Hashtbl.create 16

(** One crash/recover cycle: open a fresh durable engine, run the
    workload with [point] armed at countdown [n], crash, reopen, and
    require the recovered state to be consistent and equal to the
    committed-prefix reference (with the one-statement ambiguity window
    when the fault fired mid-commit). *)
let crash_cycle ~par ~point ~n ops =
  with_dir (fun dir ->
      let db = Engine.open_db ~data_dir:dir () in
      Engine.set_parallelism db par;
      let completed = ref 0 in
      let faulted = ref false in
      Faultinject.with_fault ~point ~n (fun () ->
          try
            List.iter
              (fun (_, f) ->
                f db;
                incr completed)
              ops
          with Faultinject.Injected _ -> faulted := true);
      if !faulted then Hashtbl.replace fired point ();
      Engine.simulate_crash db;
      let db2 = Engine.open_db ~data_dir:dir () in
      Fun.protect
        ~finally:(fun () -> Engine.close db2)
        (fun () ->
          assert_consistent db2;
          let recovered = state db2 in
          let ok =
            recovered = reference ops !completed false
            || (!faulted
               && !completed < List.length ops
               && recovered = reference ops !completed true)
          in
          if not ok then
            Alcotest.failf
              "recovered state diverges: point=%s n=%d par=%d (completed \
               %d/%d statements, fault %s)"
              point n par !completed (List.length ops)
              (if !faulted then "fired" else "did not fire")))

let sweep_tc name ops ~par ~ns =
  tc
    (Printf.sprintf "%s: crash sweep over every point (par %d)" name par)
    (fun () ->
      List.iter
        (fun point -> List.iter (fun n -> crash_cycle ~par ~point ~n ops) ns)
        (Faultinject.points ()))

(* -- explicit transactions: crash-mid-commit all-or-nothing -------- *)

let txn_setup db =
  ignore (sql db "CREATE TABLE t (a integer, d XML)");
  ignore
    (sql db "CREATE INDEX ip ON t(d) USING XMLPATTERN '//p' AS DOUBLE");
  ignore (sql db "INSERT INTO t VALUES (1, '<a><p>1</p></a>')")

(* Three DML statements in one explicit transaction: the WAL must treat
   them as a single group, so a crash anywhere inside (or during the
   commit itself) recovers to the pre-txn state or the full post-txn
   state — never to one or two of the statements. *)
let txn_body db =
  let tx = Engine.Txn.begin_ db in
  Fun.protect
    ~finally:(fun () ->
      (* a fault abandons the handle mid-transaction; a real crash takes
         the process's locks with it, but the in-process simulation must
         release the writer slot (and its Lockorder held-stack entry) or
         the leak bleeds into later tests. Rolling back writes nothing
         to the WAL, so the on-disk crash state is untouched. *)
      if Engine.Txn.active tx then
        try Engine.Txn.rollback tx with _ -> ())
    (fun () ->
      ignore
        (Engine.exec ~txn:tx db "INSERT INTO t VALUES (2, '<a><p>2</p></a>')");
      ignore
        (Engine.exec ~txn:tx db
           "UPDATE t SET d = '<a><p>100</p></a>' WHERE a = 1");
      ignore
        (Engine.exec ~txn:tx db "INSERT INTO t VALUES (3, '<a><p>3</p></a>')");
      Engine.Txn.commit tx)

let txn_reference with_txn =
  let db = Engine.create () in
  txn_setup db;
  if with_txn then txn_body db;
  state db

let txn_crash_cycle ~par ~point ~n =
  with_dir (fun dir ->
      let db = Engine.open_db ~data_dir:dir () in
      Engine.set_parallelism db par;
      txn_setup db;
      let committed = ref false and faulted = ref false in
      Faultinject.with_fault ~point ~n (fun () ->
          try
            txn_body db;
            committed := true
          with Faultinject.Injected _ -> faulted := true);
      if !faulted then Hashtbl.replace fired point ();
      Engine.simulate_crash db;
      let db2 = Engine.open_db ~data_dir:dir () in
      Fun.protect
        ~finally:(fun () -> Engine.close db2)
        (fun () ->
          assert_consistent db2;
          let recovered = state db2 in
          (* a commit that returned must be durable; a fault leaves the
             ambiguous window around the Commit record — in or out, but
             never half-applied *)
          let ok =
            (recovered = txn_reference true && (!committed || !faulted))
            || (recovered = txn_reference false && not !committed)
          in
          if not ok then
            Alcotest.failf
              "txn recovered to a partial state: point=%s n=%d par=%d \
               (commit %s, fault %s)"
              point n par
              (if !committed then "returned" else "did not return")
              (if !faulted then "fired" else "did not fire")))

let txn_sweep_tc ~par ~ns =
  tc
    (Printf.sprintf
       "crash-mid-commit txn: all-or-nothing over every point (par %d)" par)
    (fun () ->
      List.iter
        (fun point ->
          List.iter (fun n -> txn_crash_cycle ~par ~point ~n) ns)
        (Faultinject.points ()))

let torture_tests =
  [
    sweep_tc "bulk load" bulk_load_ops ~par:1 ~ns:[ 1; 7 ];
    sweep_tc "bulk load" bulk_load_ops ~par:4 ~ns:[ 1 ];
    sweep_tc "UPDATE" update_ops ~par:1 ~ns:[ 1; 7 ];
    sweep_tc "UPDATE" update_ops ~par:4 ~ns:[ 1 ];
    sweep_tc "CREATE INDEX backfill" backfill_ops ~par:1 ~ns:[ 1; 7 ];
    sweep_tc "CREATE INDEX backfill" backfill_ops ~par:4 ~ns:[ 1 ];
    txn_sweep_tc ~par:1 ~ns:[ 1; 5 ];
    txn_sweep_tc ~par:2 ~ns:[ 1 ];
    txn_sweep_tc ~par:4 ~ns:[ 1 ];
    tc "coverage: every registered fault point fired somewhere" (fun () ->
        List.iter
          (fun p ->
            check Alcotest.bool (p ^ " fired") true (Hashtbl.mem fired p))
          (Faultinject.points ()));
  ]

(* ------------------------------------------------------------------ *)
(* Plain durability round-trips                                        *)
(* ------------------------------------------------------------------ *)

let setup_small db =
  ignore (sql db "CREATE TABLE t (a integer, w date, d XML)");
  ignore
    (sql db "CREATE INDEX ip ON t(d) USING XMLPATTERN '//p' AS DOUBLE");
  ignore (sql db "CREATE INDEX ra ON t(a)");
  for i = 1 to 8 do
    ignore
      (sql db
         (Printf.sprintf
            "INSERT INTO t VALUES (%d, '2006-0%d-15', '<a><p>%d</p></a>')" i
            (1 + (i mod 9)) i))
  done

let roundtrip_tests =
  [
    tc "WAL-only reopen (no checkpoint) recovers everything" (fun () ->
        with_dir (fun dir ->
            let db = Engine.open_db ~data_dir:dir () in
            setup_small db;
            let before = state db in
            check Alcotest.(option string) "data_dir" (Some dir)
              (Engine.data_dir db);
            check Alcotest.bool "wal_appends counted" true
              (counter db "wal_appends" > 0);
            check Alcotest.bool "wal_fsyncs counted" true
              (counter db "wal_fsyncs" > 0);
            Engine.close db;
            let db2 = Engine.open_db ~data_dir:dir () in
            Fun.protect
              ~finally:(fun () -> Engine.close db2)
              (fun () ->
                check Alcotest.string "state" before (state db2);
                assert_consistent db2;
                check Alcotest.bool "redo records replayed" true
                  (counter db2 "recovery_redo_records" > 0);
                (* the index works after recovery *)
                check Alcotest.int "probe" 1
                  (sql_count db2
                     "SELECT a FROM t WHERE XMLEXISTS('$D//p[. = 5]' \
                      PASSING d AS \"D\")"))));
    tc "checkpoint truncates the WAL: reopen has zero redo" (fun () ->
        with_dir (fun dir ->
            let db = Engine.open_db ~data_dir:dir () in
            setup_small db;
            Engine.checkpoint db;
            let before = state db in
            check Alcotest.bool "snapshot written" true
              (Sys.file_exists (Filename.concat dir "snapshot.1.pages"));
            Engine.close db;
            let db2 = Engine.open_db ~data_dir:dir () in
            Fun.protect
              ~finally:(fun () -> Engine.close db2)
              (fun () ->
                check Alcotest.int "no redo" 0
                  (counter db2 "recovery_redo_records");
                check Alcotest.string "state" before (state db2);
                assert_consistent db2)));
    tc "statements after a checkpoint replay on top of the snapshot"
      (fun () ->
        with_dir (fun dir ->
            let db = Engine.open_db ~data_dir:dir () in
            setup_small db;
            Engine.checkpoint db;
            ignore
              (sql db
                 "INSERT INTO t VALUES (99, NULL, '<a><p>99</p></a>')");
            ignore (sql db "DELETE FROM t WHERE a = 2");
            let before = state db in
            Engine.close db;
            let db2 = Engine.open_db ~data_dir:dir () in
            Fun.protect
              ~finally:(fun () -> Engine.close db2)
              (fun () ->
                check Alcotest.string "state" before (state db2);
                check Alcotest.bool "redo replayed" true
                  (counter db2 "recovery_redo_records" > 0);
                assert_consistent db2)));
    tc "close leaves a working in-memory handle" (fun () ->
        with_dir (fun dir ->
            let db = Engine.open_db ~data_dir:dir () in
            setup_small db;
            Engine.close db;
            check Alcotest.(option string) "detached" None (Engine.data_dir db);
            (* mutations still work; they are just no longer durable *)
            ignore
              (sql db "INSERT INTO t VALUES (50, NULL, '<a><p>50</p></a>')");
            let db2 = Engine.open_db ~data_dir:dir () in
            Fun.protect
              ~finally:(fun () -> Engine.close db2)
              (fun () ->
                check Alcotest.int "post-close insert not durable" 0
                  (sql_count db2 "SELECT a FROM t WHERE a = 50"))));
    tc "in-memory handle: durability entry points are no-ops" (fun () ->
        let db = Engine.create () in
        check Alcotest.(option string) "no dir" None (Engine.data_dir db);
        Engine.checkpoint db;
        Engine.close db;
        Engine.simulate_crash db);
    tc "structural answers survive WAL-only reopen and checkpoint round-trip"
      (fun () ->
        with_dir (fun dir ->
            let db = Engine.open_db ~data_dir:dir () in
            setup_small db;
            let q = "db2-fn:xmlcolumn('T.D')//p/parent::a" in
            let expect = Engine.to_xml (Engine.outcome_items (Engine.exec db q)) in
            let before = state db in
            (* WAL-only: the documents replay, their encodings are
               memoized again on first use *)
            Engine.close db;
            let db2 = Engine.open_db ~data_dir:dir () in
            check Alcotest.string "state after WAL replay" before (state db2);
            assert_consistent db2;
            let o = Engine.exec db2 q in
            check Alcotest.string "structural answer survives" expect
              (Engine.to_xml (Engine.outcome_items o));
            check Alcotest.bool "served by the structural join" true
              (List.exists (contains_sub ~affix:"PSTRUCTJOIN") o.Engine.notes);
            Engine.checkpoint db2;
            ignore (sql db2 "INSERT INTO t VALUES (77, NULL, '<a><p>77</p></a>')");
            let expect2 =
              Engine.to_xml (Engine.outcome_items (Engine.exec db2 q))
            in
            let before2 = state db2 in
            Engine.close db2;
            let db3 = Engine.open_db ~data_dir:dir () in
            Fun.protect
              ~finally:(fun () -> Engine.close db3)
              (fun () ->
                check Alcotest.string "state after snapshot + redo" before2
                  (state db3);
                assert_consistent db3;
                check Alcotest.string "structural answer after snapshot + redo"
                  expect2
                  (Engine.to_xml (Engine.outcome_items (Engine.exec db3 q))))));
    tc "sync:false loads survive a clean close" (fun () ->
        with_dir (fun dir ->
            let db = Engine.open_db ~sync:false ~data_dir:dir () in
            setup_small db;
            check Alcotest.int "no fsync in sync:false mode" 0
              (counter db "wal_fsyncs");
            let before = state db in
            Engine.close db;
            let db2 = Engine.open_db ~data_dir:dir () in
            Fun.protect
              ~finally:(fun () -> Engine.close db2)
              (fun () -> check Alcotest.string "state" before (state db2))));
  ]

(* ------------------------------------------------------------------ *)
(* Format guards (XQDB0005)                                            *)
(* ------------------------------------------------------------------ *)

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

(** Checkpoint a small database, rewrite its snapshot through [f], and
    expect the reopen to be refused. *)
let corrupt_snapshot f =
  with_dir (fun dir ->
      let db = Engine.open_db ~data_dir:dir () in
      setup_small db;
      Engine.checkpoint db;
      Engine.close db;
      let snap = Filename.concat dir "snapshot.1.pages" in
      let data = In_channel.with_open_bin snap In_channel.input_all in
      write_file snap (f data);
      expect_error "XQDB0005" (fun () -> Engine.open_db ~data_dir:dir ()))

let format_tests =
  [
    tc "foreign non-empty directory is refused" (fun () ->
        with_dir (fun dir ->
            Unix.mkdir dir 0o755;
            write_file (Filename.concat dir "junk.txt") "hello";
            expect_error "XQDB0005" (fun () ->
                Engine.open_db ~data_dir:dir ())));
    tc "incompatible format version is refused" (fun () ->
        with_dir (fun dir ->
            Unix.mkdir dir 0o755;
            write_file (Filename.concat dir "MANIFEST")
              "xqdb-format 99\ngeneration 0\n";
            expect_error "XQDB0005" (fun () ->
                Engine.open_db ~data_dir:dir ())));
    tc "corrupt MANIFEST is refused" (fun () ->
        with_dir (fun dir ->
            Unix.mkdir dir 0o755;
            write_file (Filename.concat dir "MANIFEST") "what is this\n";
            expect_error "XQDB0005" (fun () ->
                Engine.open_db ~data_dir:dir ())));
    tc "corrupt snapshot magic is refused" (fun () ->
        corrupt_snapshot (fun data ->
            "XXXX" ^ String.sub data 4 (String.length data - 4));
        (* a v2 page-file header: magic, version 2, page size, blob head *)
        corrupt_snapshot (fun data ->
            let b = Buffer.create 24 in
            Buffer.add_string b "XQDBSNAP";
            Buffer.add_int32_le b 2l;
            Buffer.add_int32_le b 4096l;
            Buffer.add_int64_le b 1L;
            Buffer.contents b ^ String.sub data 12 (String.length data - 12)));
    tc "flipped byte in a document's text is refused" (fun () ->
        corrupt_snapshot (fun data ->
            (* the stored text of row 5's document is "<a><p>5</p></a>" *)
            let at =
              let rec find i =
                if String.sub data i 15 = "<a><p>5</p></a>" then i + 6
                else find (i + 1)
              in
              find 0
            in
            let b = Bytes.of_string data in
            Bytes.set b at '9';
            Bytes.to_string b));
    tc "truncated or extended snapshot is refused" (fun () ->
        corrupt_snapshot (fun data -> String.sub data 0 (String.length data - 1));
        corrupt_snapshot (fun data -> data ^ "\000"));
    tc "orphan files from a crashed checkpoint are swept on open" (fun () ->
        with_dir (fun dir ->
            let db = Engine.open_db ~data_dir:dir () in
            setup_small db;
            let before = state db in
            (* a checkpoint that crashed before publishing: half-written
               next-generation files that must not confuse recovery *)
            write_file (Filename.concat dir "snapshot.1.pages") "garbage";
            write_file (Filename.concat dir "wal.1.log") "garbage";
            write_file (Filename.concat dir "MANIFEST.tmp") "torn";
            Engine.simulate_crash db;
            let db2 = Engine.open_db ~data_dir:dir () in
            Fun.protect
              ~finally:(fun () -> Engine.close db2)
              (fun () ->
                check Alcotest.string "state" before (state db2);
                check Alcotest.bool "orphan snapshot removed" false
                  (Sys.file_exists (Filename.concat dir "snapshot.1.pages")))));
  ]

(* ------------------------------------------------------------------ *)
(* The frame codec                                                     *)
(* ------------------------------------------------------------------ *)

module C = Wal.Codec

let codec_tests =
  [
    tc "u32 refuses values outside [0, 2^32)" (fun () ->
        let buf = Buffer.create 4 in
        C.u32 buf 0xffff_ffff;
        check Alcotest.string "max fits" "\255\255\255\255" (Buffer.contents buf);
        List.iter
          (fun v ->
            match C.u32 buf v with
            | () -> Alcotest.failf "u32 %d accepted" v
            | exception Invalid_argument _ -> ())
          [ -1; 1 lsl 32; max_int ]);
    tc "frames read back; short or flipped frames read as None" (fun () ->
        let f = C.frame "payload" ^ C.frame "" in
        let r = C.reader f in
        check Alcotest.(option string) "first" (Some "payload") (C.g_frame r);
        check Alcotest.(option string) "second" (Some "") (C.g_frame r);
        check Alcotest.bool "at end" true (C.at_end r);
        let bad s =
          let r = C.reader s in
          check Alcotest.(option string) "refused" None (C.g_frame r);
          check Alcotest.int "position kept" 0 r.C.pos
        in
        bad (String.sub f 0 10);
        bad (String.sub f 0 7);
        for i = 0 to 14 do
          let b = Bytes.of_string f in
          Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
          bad (Bytes.to_string b)
        done);
  ]

(* ------------------------------------------------------------------ *)
(* Torn-write property                                                 *)
(* ------------------------------------------------------------------ *)

(** Truncate the WAL at a random offset and flip a random byte of what
    remains, then reopen: recovery must surface a *committed prefix* of
    the statements — never a half-applied one — with indexes consistent. *)
let torn_write_prop =
  QCheck.Test.make ~count:35
    ~name:"torn/corrupt WAL tail recovers to a committed prefix"
    QCheck.(
      triple (int_bound 1_000_000) (int_bound 1_000_000) (int_bound 255))
    (fun (tpos, fpos, byte) ->
      with_dir (fun dir ->
          let db = Engine.open_db ~sync:false ~data_dir:dir () in
          ignore (sql db "CREATE TABLE t (a integer, d XML)");
          ignore
            (sql db
               "CREATE INDEX ip ON t(d) USING XMLPATTERN '//p' AS DOUBLE");
          for i = 1 to 12 do
            ignore
              (sql db
                 (Printf.sprintf
                    "INSERT INTO t VALUES (%d, '<a><p>%d</p></a>')" i i))
          done;
          Engine.close db;
          let wal = Filename.concat dir "wal.0.log" in
          let data = In_channel.with_open_bin wal In_channel.input_all in
          let keep = tpos mod (String.length data + 1) in
          let b = Bytes.of_string (String.sub data 0 keep) in
          if keep > 0 then Bytes.set b (fpos mod keep) (Char.chr byte);
          Out_channel.with_open_bin wal (fun oc ->
              Out_channel.output_bytes oc b);
          let db2 = Engine.open_db ~data_dir:dir () in
          Fun.protect
            ~finally:(fun () -> Engine.close db2)
            (fun () ->
              assert_consistent db2;
              (* whatever survived must be an exact statement prefix:
                 CREATE TABLE, then CREATE INDEX, then rows 1..k *)
              match
                List.map
                  (fun (t : Storage.Table.t) -> t.Storage.Table.name)
                  (Storage.Database.tables (Engine.database db2))
              with
              | [] ->
                  check Alcotest.int "no table, no indexes" 0
                    (List.length (Engine.xml_indexes db2));
                  true
              | [ _ ] ->
                  let rows =
                    List.sort compare
                      (List.concat_map
                         (List.map Storage.Sql_value.to_display)
                         (sql db2 "SELECT a FROM t").Sqlxml.Sql_exec
                           .rrows)
                  in
                  let k = List.length rows in
                  check
                    Alcotest.(list string)
                    "rows are the prefix 1..k"
                    (List.sort compare
                       (List.init k (fun i -> string_of_int (i + 1))))
                    rows;
                  true
              | ts -> Alcotest.failf "unexpected tables: %s" (String.concat "," ts))))

(* ------------------------------------------------------------------ *)
(* Compatibility: a directory written by a build with structural indexes *)
(* ------------------------------------------------------------------ *)

(* fixtures/struct_v3 was written by a build in which CREATE STRUCTURAL
   INDEX made a catalog object: its format-3 snapshot's closing S frame
   names the index s_snap, and its WAL tail holds the DDL record
   "CREATE STRUCTURAL INDEX s_wal ON t(d)" followed by one insert. This
   build must read the definition and drop it, replay the DDL as the
   validating no-op, and answer structural queries by the join. *)
let copy_fixture dir =
  let fixture_dir = fixture_path "struct_v3" in
  Unix.mkdir dir 0o755;
  Array.iter
    (fun name ->
      write_file (Filename.concat dir name)
        (In_channel.with_open_bin (Filename.concat fixture_dir name)
           In_channel.input_all))
    (Sys.readdir fixture_dir)

(* the rows as the writing build listed them *)
let fixture_rows =
  [
    "1|<a q=\"1\"><p>1</p><r><p>10</p></r></a>";
    "2|<a><r/><p>2</p><!--c--><p>20</p></a>";
    "3|<a q=\"3\"><r><r><p>3</p></r></r>t</a>";
    "4|<a><p>4</p><r q=\"4\"><p>40</p></r><p>41</p></a>";
  ]

let compat_tests =
  [
    tc "a directory with structural-index definitions opens and answers"
      (fun () ->
        with_dir (fun dir ->
            copy_fixture dir;
            let db = Engine.open_db ~data_dir:dir () in
            Fun.protect
              ~finally:(fun () -> Engine.close db)
              (fun () ->
                check
                  Alcotest.(list string)
                  "rows identical" fixture_rows
                  (List.map
                     (fun r ->
                       String.concat "|"
                         (List.map Storage.Sql_value.to_display r))
                     (sql db "SELECT a, d FROM t").Sqlxml.Sql_exec.rrows);
                List.iter
                  (fun q ->
                    let o = Engine.exec db q in
                    check Alcotest.string (q ^ " ≡ strict")
                      (Engine.to_xml (xquery_strict db q))
                      (Engine.to_xml (Engine.outcome_items o));
                    check Alcotest.bool (q ^ ": PSTRUCTJOIN") true
                      (List.exists
                         (contains_sub ~affix:"PSTRUCTJOIN")
                         o.Engine.notes))
                  [
                    "db2-fn:xmlcolumn('T.D')//p/parent::*";
                    "db2-fn:xmlcolumn('T.D')//p/ancestor::r";
                    "db2-fn:xmlcolumn('T.D')/a/r/preceding-sibling::*";
                  ];
                check
                  Alcotest.(list string)
                  "only the XML index remains" [ "ip" ]
                  (List.map fst (Engine.check_consistency db));
                assert_consistent db)));
    tc "a checkpoint of such a directory writes an empty structural list"
      (fun () ->
        with_dir (fun dir ->
            copy_fixture dir;
            let db = Engine.open_db ~data_dir:dir () in
            Engine.checkpoint db;
            Engine.close db;
            let snap =
              In_channel.with_open_bin
                (Filename.concat dir "snapshot.2.pages")
                In_channel.input_all
            in
            check Alcotest.bool "closing S frame holds a zero count" true
              (String.ends_with ~suffix:(Wal.Codec.frame "S\000") snap);
            let db2 = Engine.open_db ~data_dir:dir () in
            Fun.protect
              ~finally:(fun () -> Engine.close db2)
              (fun () ->
                check Alcotest.int "rows" (List.length fixture_rows)
                  (sql_count db2 "SELECT a FROM t"))));
  ]

let suite =
  [
    ("durable:roundtrip", roundtrip_tests);
    ("durable:format", format_tests);
    ("durable:compat", compat_tests);
    ("durable:codec", codec_tests);
    ("durable:torture", torture_tests);
    ("durable:torn", [ QCheck_alcotest.to_alcotest torn_write_prop ]);
  ]
