(** {!Engine.Txn}: MVCC snapshot isolation and the single-writer slot.

    The contract under test (docs/TRANSACTIONS.md):

    - a read-only transaction pins one committed snapshot for its whole
      life — concurrent commits never leak into it;
    - a read-write transaction reads its own uncommitted statements,
      publishes them atomically at commit, and restores rows *and* index
      entries on rollback;
    - at most one read-write transaction exists at a time — a second
      [begin_] is refused with [XQDB0007] (write-write conflict), as are
      writes in a read-only transaction, DDL/checkpoint inside an
      explicit transaction, and any use of a finished handle;
    - serializability: whatever a concurrent reader observes is a state
      some serial execution of the committed transactions produces —
      never a partial transaction. The qcheck property drives random
      transaction batches against free-running reader threads at
      parallelism 1, 2 and 4. *)

open Helpers

let mk_db () =
  let db = Engine.create () in
  ignore (Engine.exec db "CREATE TABLE t (a integer, d XML)");
  ignore
    (Engine.exec db "CREATE INDEX ip ON t(d) USING XMLPATTERN '//p' AS DOUBLE");
  List.iter
    (fun i ->
      ignore
        (Engine.exec db
           (Printf.sprintf "INSERT INTO t VALUES (%d, '<a><p>%d</p></a>')" i i)))
    [ 1; 2; 3 ];
  db

let count ?txn db =
  List.length (Engine.outcome_rows (Engine.exec ?txn db "SELECT a FROM t"))

(* Rows that the index-backed probe finds: must track the table exactly
   through commit and rollback. *)
let probe ?txn db =
  List.length
    (Engine.outcome_rows
       (Engine.exec ?txn db
          "SELECT a FROM t WHERE XMLExists('$d//p[. > 0]' passing d as \"d\")"))

let entry_counts db =
  List.map
    (fun (i : Xmlindex.Xindex.t) ->
      ( i.Xmlindex.Xindex.def.Xmlindex.Xindex.iname,
        Xmlindex.Xindex.entry_count i ))
    (Engine.xml_indexes db)

let ins ?txn db k =
  ignore
    (Engine.exec ?txn db
       (Printf.sprintf "INSERT INTO t VALUES (%d, '<a><p>%d</p></a>')" k k))

(* ------------------------------------------------------------------ *)
(* Structural joins under MVCC: snapshots share document trees by
   reference, so they share each tree's memoized encoding too          *)
(* ------------------------------------------------------------------ *)

let xml_of ?txn db src =
  Engine.to_xml (Engine.outcome_items (Engine.exec ?txn db src))

let struct_tests =
  let sq = "db2-fn:xmlcolumn('T.D')//p/parent::a" in
  let assert_strict db =
    check Alcotest.string "structural ≡ strict"
      (Engine.to_xml (xquery_strict db sq))
      (xml_of db sq)
  in
  [
    tc "read-only txn keeps structural answers pinned during a writer load"
      (fun () ->
        let db = mk_db () in
        let ro = Engine.Txn.begin_ ~mode:Engine.Txn.Read_only db in
        let pinned = xml_of ~txn:ro db sq in
        let o = Engine.exec ~txn:ro db sq in
        check Alcotest.bool "snapshot read is a structural join" true
          (List.exists (contains_sub ~affix:"PSTRUCTJOIN") o.Engine.notes);
        (* autocommit bulk load lands new docs in the live engine while
           the reader is mid-transaction *)
        Engine.load_documents db ~table:"t" ~column:"d"
          (List.init 8 (fun i -> Printf.sprintf "<a><p>%d</p></a>" (100 + i)));
        check Alcotest.string "pinned snapshot answer unchanged" pinned
          (xml_of ~txn:ro db sq);
        Engine.Txn.commit ro;
        (* after the txn the implicit read sees all eleven documents *)
        check Alcotest.bool "implicit read grew" true
          (String.length (xml_of db sq) > String.length pinned);
        assert_strict db);
    tc "rollback restores structural answers" (fun () ->
        let db = mk_db () in
        let answer0 = xml_of db sq in
        let tx = Engine.Txn.begin_ db in
        ins ~txn:tx db 60;
        ignore
          (Engine.exec ~txn:tx db
             "UPDATE t SET d = '<a><p>999</p><p>998</p></a>' WHERE a = 1");
        ignore (Engine.exec ~txn:tx db "DELETE FROM t WHERE a = 2");
        check Alcotest.bool "the txn reads its own writes structurally" true
          (contains_sub ~affix:"999" (xml_of ~txn:tx db sq));
        Engine.Txn.rollback tx;
        check Alcotest.string "structural answer restored" answer0
          (xml_of db sq);
        assert_strict db);
    tc "commit publishes new documents to the structural join" (fun () ->
        let db = mk_db () in
        ignore (xml_of db sq);
        let tx = Engine.Txn.begin_ db in
        ins ~txn:tx db 61;
        ins ~txn:tx db 62;
        Engine.Txn.commit tx;
        let after = xml_of db sq in
        check Alcotest.bool "committed documents answer" true
          (contains_sub ~affix:"<p>62</p>" after);
        assert_strict db);
  ]

(* ------------------------------------------------------------------ *)
(* Unit tests (swept over parallelism 1/2/4 where it matters)          *)
(* ------------------------------------------------------------------ *)

let pars = [ 1; 2; 4 ]

let sweep name f =
  List.map
    (fun par ->
      tc
        (Printf.sprintf "%s (par %d)" name par)
        (fun () ->
          let db = mk_db () in
          Engine.set_parallelism db par;
          f db))
    pars

let unit_tests =
  sweep "read-only txn pins its snapshot; commit publishes" (fun db ->
      let ro = Engine.Txn.begin_ ~mode:Engine.Txn.Read_only db in
      check Alcotest.int "initial" 3 (count ~txn:ro db);
      ins db 10;
      (* autocommit insert committed — but not into the pinned snapshot *)
      check Alcotest.int "snapshot unchanged" 3 (count ~txn:ro db);
      check Alcotest.int "implicit read sees the commit" 4 (count db);
      Engine.Txn.commit ro;
      check Alcotest.int "after the txn" 4 (count db))
  @ sweep "read-write txn: read-your-writes, atomic publication" (fun db ->
        let ro = Engine.Txn.begin_ ~mode:Engine.Txn.Read_only db in
        let tx = Engine.Txn.begin_ db in
        ins ~txn:tx db 10;
        ins ~txn:tx db 11;
        check Alcotest.int "writer reads its own writes" 5 (count ~txn:tx db);
        check Alcotest.int "reader still at the old snapshot" 3
          (count ~txn:ro db);
        check Alcotest.int "implicit reads unaffected until commit" 3
          (count db);
        Engine.Txn.commit tx;
        check Alcotest.int "published at commit" 5 (count db);
        check Alcotest.int "old snapshot still pinned" 3 (count ~txn:ro db);
        Engine.Txn.rollback ro)
  @ sweep "rollback restores rows and index entries" (fun db ->
        let rows0 = count db in
        let probes0 = probe db in
        let entries0 = entry_counts db in
        let tx = Engine.Txn.begin_ db in
        ins ~txn:tx db 20;
        ignore
          (Engine.exec ~txn:tx db
             "UPDATE t SET d = '<a><p>999</p></a>' WHERE a = 1");
        ignore (Engine.exec ~txn:tx db "DELETE FROM t WHERE a = 2");
        check Alcotest.bool "txn saw its changes" true
          (count ~txn:tx db = rows0);
        Engine.Txn.rollback tx;
        check Alcotest.int "rows restored" rows0 (count db);
        check
          Alcotest.(list (pair string int))
          "index entries restored" entries0 (entry_counts db);
        check Alcotest.int "index probe agrees" probes0 (probe db))
  @ sweep "transaction discipline errors are XQDB0007" (fun db ->
        (* write-write conflict *)
        let tx = Engine.Txn.begin_ db in
        expect_error "XQDB0007" (fun () -> Engine.Txn.begin_ db);
        (* DDL and checkpoint are autocommit-only *)
        expect_error "XQDB0007" (fun () ->
            Engine.exec ~txn:tx db
              "CREATE INDEX nope ON t(d) USING XMLPATTERN '//q' AS DOUBLE");
        expect_error "XQDB0007" (fun () -> Engine.checkpoint db);
        Engine.Txn.commit tx;
        (* the slot is free again *)
        let tx2 = Engine.Txn.begin_ db in
        (* a finished handle refuses everything *)
        Engine.Txn.rollback tx2;
        expect_error "XQDB0007" (fun () -> Engine.Txn.commit tx2);
        expect_error "XQDB0007" (fun () -> count ~txn:tx2 db);
        (* writes in a read-only transaction *)
        let ro = Engine.Txn.begin_ ~mode:Engine.Txn.Read_only db in
        expect_error "XQDB0007" (fun () -> ins ~txn:ro db 30);
        Engine.Txn.commit ro)
  @ [
      tc "autocommit writes are refused while a txn holds the writer"
        (fun () ->
          let db = mk_db () in
          let tx = Engine.Txn.begin_ db in
          expect_error "XQDB0007" (fun () -> ins db 40);
          Engine.Txn.commit tx;
          ins db 40;
          check Alcotest.int "slot released" 4 (count db));
      tc "txn cursor streams the transaction's snapshot" (fun () ->
          let db = mk_db () in
          let ro = Engine.Txn.begin_ ~mode:Engine.Txn.Read_only db in
          let c = Engine.open_cursor ~txn:ro db "SELECT a FROM t" in
          ins db 50;
          (* the pinned cursor is oblivious to the commit *)
          let n =
            Engine.Cursor.fold (fun acc _ -> acc + 1) 0 c
          in
          check Alcotest.int "cursor rows" 3 n;
          Engine.Cursor.close c;
          Engine.Txn.commit ro);
    ]
  @ struct_tests

(* ------------------------------------------------------------------ *)
(* Serializability property                                            *)
(* ------------------------------------------------------------------ *)

(* A batch of read-write transactions, each inserting [k] rows and then
   committing or rolling back, runs against three free-running reader
   threads. Every count a reader observes must be a committed-prefix
   state — the row counts some serial execution of the committed
   transactions passes through. Observing anything else means a reader
   saw a partial transaction (or a rolled-back one). *)
let gen_batch =
  QCheck.Gen.(
    pair
      (list_size (int_range 1 3) (pair (int_range 1 8) bool))
      (oneofl [ 1; 2; 4 ]))

let prop_serializable =
  QCheck.Test.make ~count:20
    ~name:"txn: readers only ever observe serial states"
    (QCheck.make gen_batch)
    (fun (batch, par) ->
      let db = mk_db () in
      Engine.set_parallelism db par;
      Engine.enable_concurrent db;
      let n0 = count db in
      (* committed-prefix states: n0, then one milestone per committed
         transaction *)
      let milestones =
        List.rev
          (List.fold_left
             (fun acc (k, commit) ->
               if commit then ((List.hd acc : int) + k) :: acc else acc)
             [ n0 ] batch)
      in
      let stop = Atomic.make false in
      let violations = Atomic.make 0 in
      let readers =
        List.init 3 (fun _ ->
            Thread.create
              (fun () ->
                while not (Atomic.get stop) do
                  let n = count db in
                  if not (List.mem n milestones) then
                    Atomic.incr violations;
                  Thread.yield ()
                done)
              ())
      in
      let next = ref 1000 in
      List.iter
        (fun (k, commit) ->
          let tx = Engine.Txn.begin_ db in
          for _ = 1 to k do
            incr next;
            ins ~txn:tx db !next
          done;
          if commit then Engine.Txn.commit tx else Engine.Txn.rollback tx)
        batch;
      Atomic.set stop true;
      List.iter Thread.join readers;
      Atomic.get violations = 0
      && count db = List.hd (List.rev milestones))

let suite =
  [
    ("txn:unit", unit_tests);
    ("txn:prop", [ QCheck_alcotest.to_alcotest prop_serializable ]);
  ]
