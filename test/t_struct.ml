(** Differential structural-join ≡ tree-walk ≡ reference harness.

    Predicate-free axis pipelines run as array joins over each
    document's pre/post encoding, memoized on the document root at first
    use; the tree-walk evaluator answers the same queries by navigation,
    and {!Ref_axes} answers them from the axis definitions over its own
    pre/post numbering. All three must be byte-identical on every axis —
    forward, reverse and sibling — over the paper corpus and over
    qcheck-random documents, at parallelism 1, 2 and 4. The plan must say
    which path ran ([PSTRUCTJOIN ...] vs [nav-axis: ...] notes), the
    Xprof counters must charge the structural probes, and every memoized
    encoding must satisfy the interval laws. *)

open Helpers

let levels = [ 1; 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Fixtures                                                            *)
(* ------------------------------------------------------------------ *)

let mk_db () = paper_db ~n_orders:60 ()

let shared_db = lazy (mk_db ())

(** Hand-written documents exercising the encoding's corners: nested
    same-name elements, attributes at every depth, text/comment/PI
    nodes, single-child chains and wide fan-out. *)
let special_docs =
  [
    "<a x=\"1\"><b y=\"2\"><a x=\"3\"><c/></a></b><b/><c z=\"4\">t</c></a>";
    "<r><!--c--><?pi data?><e>text<e>nested</e></e><e/></r>";
    "<one><two><three><four a=\"deep\"/></three></two></one>";
    "<w><k/><k/><k/><k/><k/><k/><k/><k/></w>";
    "<m a=\"1\" b=\"2\" c=\"3\"><n d=\"4\"/>mixed<n/></m>";
  ]

let mk_special_db () =
  let db = Engine.create () in
  ignore (sql db "CREATE TABLE t (id integer, doc XML)");
  Engine.load_documents db ~table:"t" ~column:"doc" special_docs;
  db

let special_db = lazy (mk_special_db ())

(* ------------------------------------------------------------------ *)
(* Differential driver                                                 *)
(* ------------------------------------------------------------------ *)

let render (o : Engine.outcome) : string =
  match o.Engine.payload with
  | Engine.Items items -> Engine.to_xml items
  | Engine.Rows { cols; rows } ->
      String.concat "|" cols ^ "\n"
      ^ String.concat "\n"
          (List.map
             (fun r ->
               String.concat "|" (List.map Storage.Sql_value.to_display r))
             rows)

let snapshot ~indexes ~par db (src : string) : string =
  Engine.set_use_indexes db indexes;
  Engine.set_parallelism db par;
  Fun.protect
    ~finally:(fun () ->
      Engine.set_use_indexes db true;
      Engine.set_parallelism db 1)
    (fun () ->
      match Engine.exec db src with
      | o -> render o
      | exception Xdm.Xerror.Error { code; _ } -> "ERROR " ^ code)

(** The reference: strict tree-walk evaluation, outside the planner. *)
let strict db (src : string) : string =
  match xquery_strict db src with
  | items -> Engine.to_xml items
  | exception Xdm.Xerror.Error { code; _ } -> "ERROR " ^ code

(** The independent reference, for axis pipelines only. *)
let reference db (src : string) : string option =
  Option.map
    (fun nodes -> Engine.to_xml (List.map Xdm.Item.of_node nodes))
    (Ref_axes.eval (Engine.database db) src)

(** Does [src] with indexes on/off show the structural join? *)
let joins ~indexes db src =
  Engine.set_use_indexes db indexes;
  Fun.protect
    ~finally:(fun () -> Engine.set_use_indexes db true)
    (fun () ->
      List.exists
        (contains_sub ~affix:"PSTRUCTJOIN")
        (Engine.exec db src).Engine.notes)

(** Structural (indexes on) ≡ navigational (indexes off) ≡ strict
    tree-walk at every parallelism level, byte-identical; an axis
    pipeline also ≡ the reference evaluator, with PSTRUCTJOIN in its
    plan only while indexes are on. *)
let assert_struct_diff db (id : string) (src : string) =
  let base = strict db src in
  (match reference db src with
  | Some r ->
      check Alcotest.string (id ^ ": reference ≡ strict") base r;
      check Alcotest.bool (id ^ ": PSTRUCTJOIN with indexes on") true
        (joins ~indexes:true db src);
      check Alcotest.bool (id ^ ": no PSTRUCTJOIN with indexes off") false
        (joins ~indexes:false db src)
  | None ->
      check Alcotest.bool (id ^ ": other shapes never join") false
        (joins ~indexes:true db src));
  List.iter
    (fun par ->
      check Alcotest.string
        (Printf.sprintf "%s: structural par=%d ≡ tree-walk" id par)
        base
        (snapshot ~indexes:true ~par db src);
      check Alcotest.string
        (Printf.sprintf "%s: tree-walk par=%d ≡ strict" id par)
        base
        (snapshot ~indexes:false ~par db src))
    levels

(** The interval laws of a memoized encoding, and its agreement with the
    reference numbering of the same tree: parent before child, each node
    inside its parent's preorder interval, level + 1 below the parent,
    post order below the parent. Returns the violations. *)
let encoding_problems (root : Xdm.Node.t) : string list =
  let module S = Xmlindex.Structindex in
  let e = S.encoding root in
  let rows = Ref_axes.number root in
  let problems = ref [] in
  let add fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  if S.encoding root != e then add "encoding is not memoized";
  let n = Array.length e.S.nodes in
  if n <> Array.length rows then
    add "encoding has %d nodes, tree has %d" n (Array.length rows)
  else
    for j = 0 to n - 1 do
      let r = rows.(j) in
      if
        e.S.nodes.(j) != r.Ref_axes.node
        || e.S.post.(j) <> r.Ref_axes.post
        || e.S.parent.(j) <> r.Ref_axes.parent
        || e.S.level.(j) <> r.Ref_axes.level
      then add "pre %d differs from the reference numbering" j;
      let p = e.S.parent.(j) in
      if j = 0 then begin
        if p <> -1 || e.S.level.(0) <> 0 then
          add "root must have parent -1, level 0"
      end
      else if p < 0 || p >= j then add "pre %d: parent %d not before it" j p
      else begin
        if not (j <= e.S.endp.(p)) then
          add "pre %d outside parent %d's interval (%d,%d]" j p p e.S.endp.(p);
        if e.S.endp.(j) > e.S.endp.(p) then
          add "pre %d: subtree ends past its parent's" j;
        if e.S.level.(j) <> e.S.level.(p) + 1 then
          add "pre %d level %d, parent level %d" j e.S.level.(j) e.S.level.(p);
        if e.S.post.(j) >= e.S.post.(p) then
          add "pre %d post %d not before parent post %d" j e.S.post.(j)
            e.S.post.(p)
      end
    done;
  List.rev !problems

(* ------------------------------------------------------------------ *)
(* Axis corpus: every axis, structural shape and fallback shapes        *)
(* ------------------------------------------------------------------ *)

let orders = "db2-fn:xmlcolumn('ORDERS.ORDDOC')"

let axis_corpus =
  [
    (* forward axes *)
    ("child-chain", orders ^ "/order/lineitem");
    ("descendant", orders ^ "//product");
    ("desc-or-self", orders ^ "/order/descendant-or-self::*");
    ("self", orders ^ "/order/self::order");
    ("self-star", orders ^ "/order/self::*");
    ("attr", orders ^ "//lineitem/@price");
    ("attr-star", orders ^ "/order/@*");
    (* reverse axes — tree-walk-only without the structural join *)
    ("parent-star", orders ^ "//product/parent::*");
    ("parent-named", orders ^ "//id/parent::product");
    ("parent-node", orders ^ "//quantity/parent::node()");
    ("ancestor", orders ^ "//id/ancestor::*");
    ("ancestor-named", orders ^ "//id/ancestor::lineitem");
    ("ancestor-or-self", orders ^ "//product/ancestor-or-self::*");
    ("attr-parent", orders ^ "//lineitem/@price/parent::*");
    (* sibling axes *)
    ("following-sibling", orders ^ "/order/lineitem/following-sibling::*");
    ( "following-sibling-named",
      orders ^ "/order/lineitem/following-sibling::lineitem" );
    ("preceding-sibling", orders ^ "/order/lineitem/preceding-sibling::*");
    ( "preceding-sibling-named",
      orders ^ "/order/custid/preceding-sibling::lineitem" );
    (* chains mixing directions *)
    ("down-up-down", orders ^ "//id/ancestor::lineitem/@price");
    ("up-then-sibling", orders ^ "//product/parent::lineitem/following-sibling::*");
    ("deep-mix", orders ^ "//id/parent::product/parent::lineitem/parent::order/custid");
    (* kind tests *)
    ("text-nodes", orders ^ "//custid/descendant-or-self::text()");
    ("any-node", orders ^ "/order/node()");
    (* shapes the structural path must decline (predicates, FLWOR) and
       answer navigationally with identical bytes *)
    ("pred-fallback", orders ^ "//lineitem[@price > 500]/parent::order");
    ( "flwor-fallback",
      "for $p in " ^ orders ^ "//product/parent::lineitem return $p/@price" );
    ("count-fallback", "count(" ^ orders ^ "//product/parent::*)");
  ]

let special = "db2-fn:xmlcolumn('T.DOC')"

let special_corpus =
  [
    ("sp-desc-a", special ^ "//a");
    ("sp-nested-same-name", special ^ "//e//e");
    ("sp-desc-or-self-nested", special ^ "//a/descendant-or-self::a");
    ("sp-anc-nested", special ^ "//c/ancestor::*");
    ("sp-anc-or-self-nested", special ^ "//a/ancestor-or-self::a");
    ("sp-parent", special ^ "//*/parent::*");
    ("sp-attr-everywhere", special ^ "//@*");
    ("sp-attr-parent", special ^ "//@x/parent::*");
    ("sp-attr-self", special ^ "//@x/descendant-or-self::node()");
    ("sp-text", special ^ "//e/text()");
    ("sp-comment", special ^ "/r/comment()");
    ("sp-pi", special ^ "/r/processing-instruction()");
    ("sp-node", special ^ "//node()");
    ("sp-sib-wide", special ^ "/w/k/following-sibling::k");
    ("sp-presib-wide", special ^ "/w/k/preceding-sibling::k");
    ("sp-sib-mixed", special ^ "/m/n/following-sibling::node()");
    ("sp-presib-mixed", special ^ "/m/n/preceding-sibling::node()");
    ("sp-chain-deep", special ^ "//four/ancestor::*/child::*");
  ]

let corpus_tests =
  [
    tc "every axis: structural ≡ tree-walk at parallelism 1/2/4" (fun () ->
        let db = Lazy.force shared_db in
        List.iter (fun (id, src) -> assert_struct_diff db id src) axis_corpus);
    tc "special documents: structural ≡ tree-walk at parallelism 1/2/4"
      (fun () ->
        let db = Lazy.force special_db in
        List.iter
          (fun (id, src) -> assert_struct_diff db id src)
          special_corpus);
  ]

(* ------------------------------------------------------------------ *)
(* Plan surface: PSTRUCTJOIN notes, nav-axis notes, counters, DDL       *)
(* ------------------------------------------------------------------ *)

let plan_tests =
  [
    tc "eligible reverse-axis query shows the structural join in EXPLAIN"
      (fun () ->
        let db = Lazy.force shared_db in
        let _, plan = xquery db (orders ^ "//lineitem/parent::*") in
        check Alcotest.bool "PSTRUCTJOIN note present" true
          (List.exists (contains_sub ~affix:"PSTRUCTJOIN") plan.Planner.notes);
        check Alcotest.bool "parent axis step noted" true
          (List.exists
             (contains_sub ~affix:"PSTRUCTJOIN parent::*")
             plan.Planner.notes);
        check Alcotest.(list string) "indexes_used lists real indexes only" []
          (used plan));
    tc "ineligible shape (predicate) falls back with a nav-axis note"
      (fun () ->
        let db = Lazy.force shared_db in
        let _, plan =
          xquery db (orders ^ "//lineitem[@price > 500]/parent::order")
        in
        check Alcotest.bool "no PSTRUCTJOIN note" false
          (List.exists (contains_sub ~affix:"PSTRUCTJOIN") plan.Planner.notes);
        check Alcotest.bool "nav-axis note present" true
          (List.exists
             (contains_sub ~affix:"nav-axis: parent (tree-walk)")
             plan.Planner.notes));
    tc "a fresh database joins without any DDL" (fun () ->
        let db = paper_db ~n_orders:5 () in
        let _, plan = xquery db (orders ^ "//product/parent::*") in
        check Alcotest.bool "PSTRUCTJOIN note present" true
          (List.exists (contains_sub ~affix:"PSTRUCTJOIN") plan.Planner.notes);
        check Alcotest.bool "no nav-axis note" false
          (List.exists (contains_sub ~affix:"nav-axis") plan.Planner.notes));
    tc "\\indexes off suppresses the structural join" (fun () ->
        let db = Lazy.force shared_db in
        Engine.set_use_indexes db false;
        Fun.protect
          ~finally:(fun () -> Engine.set_use_indexes db true)
          (fun () ->
            let _, plan = xquery db (orders ^ "//product/parent::*") in
            check Alcotest.bool "no PSTRUCTJOIN when indexes are off" false
              (List.exists
                 (contains_sub ~affix:"PSTRUCTJOIN")
                 plan.Planner.notes)));
    tc "struct_probes counter charges under profiling" (fun () ->
        let db = mk_db () in
        Engine.set_profiling db true;
        Fun.protect
          ~finally:(fun () -> Engine.set_profiling db false)
          (fun () ->
            ignore (Engine.exec db (orders ^ "//product/parent::*"));
            let probes =
              List.assoc_opt "struct_probes"
                (Xprof.counters (Engine.profile db))
            in
            match probes with
            | Some n when n > 0 -> ()
            | _ -> Alcotest.fail "struct_probes not charged"));
    tc "cursor over a structural query streams the same items" (fun () ->
        let db = Lazy.force shared_db in
        let src = orders ^ "//product/parent::lineitem/@price" in
        let cur = Engine.open_cursor db src in
        let rec drain acc =
          match Engine.Cursor.next cur with
          | Some (Engine.Cursor.Item it) -> drain (it :: acc)
          | Some (Engine.Cursor.Row _) -> Alcotest.fail "row from XQuery cursor"
          | None -> List.rev acc
        in
        let streamed = drain [] in
        Engine.Cursor.close cur;
        check Alcotest.string "cursor ≡ strict" (strict db src)
          (Engine.to_xml streamed));
    tc "structural cursor joins one document per pull" (fun () ->
        let db = mk_db () in
        let src = orders ^ "//product/parent::lineitem" in
        Engine.set_profiling db true;
        Fun.protect
          ~finally:(fun () -> Engine.set_profiling db false)
          (fun () ->
            let probes_during f =
              let count () =
                Option.value ~default:0
                  (List.assoc_opt "struct_probes"
                     (Xprof.counters (Engine.profile db)))
              in
              let before = count () in
              f ();
              count () - before
            in
            let one_pull =
              probes_during (fun () ->
                  let cur = Engine.open_cursor db src in
                  check Alcotest.bool "first pull" true
                    (Engine.Cursor.next cur <> None);
                  Engine.Cursor.close cur)
            in
            let drained =
              probes_during (fun () ->
                  let cur = Engine.open_cursor db src in
                  ignore (Engine.Cursor.fold (fun n _ -> n + 1) 0 cur))
            in
            check Alcotest.bool
              (Printf.sprintf "one pull probes %d < drained %d" one_pull
                 drained)
              true
              (0 < one_pull && one_pull < drained)));
    tc "CREATE STRUCTURAL INDEX is a validating no-op" (fun () ->
        let db = paper_db ~n_orders:5 () in
        let src = orders ^ "//product/parent::*" in
        let _, plan0 = xquery db src in
        let xml0 = List.length (Engine.xml_indexes db)
        and rel0 = List.length (Engine.rel_indexes db) in
        ignore (sql db "CREATE STRUCTURAL INDEX s_o ON orders(orddoc)");
        let _, plan1 = xquery db src in
        check Alcotest.(list string) "same plan notes" plan0.Planner.notes
          plan1.Planner.notes;
        check Alcotest.int "no XML index added" xml0
          (List.length (Engine.xml_indexes db));
        check Alcotest.int "no relational index added" rel0
          (List.length (Engine.rel_indexes db));
        expect_error "XQDB0002" (fun () ->
            sql db "CREATE STRUCTURAL INDEX s_x ON nosuch(orddoc)");
        expect_error "XQDB0002" (fun () ->
            sql db "CREATE STRUCTURAL INDEX s_x ON orders(nocol)");
        (* a non-XML column was accepted when the index was an object,
           and still is *)
        ignore (sql db "CREATE STRUCTURAL INDEX s_i ON orders(ordid)");
        ignore (sql db "DROP INDEX s_o"));
    tc "memoized encodings satisfy the interval laws" (fun () ->
        let db = mk_db () in
        ignore
          (sql db
             "INSERT INTO orders VALUES (990, '<order><lineitem \
              quantity=\"1\"/></order>')");
        ignore (Engine.exec db (orders ^ "//lineitem/parent::*"));
        List.iter
          (fun (root : Xdm.Node.t) ->
            check Alcotest.(list string) "interval laws" []
              (encoding_problems root))
          (Ref_axes.documents (Engine.database db) "ORDERS.ORDDOC"));
  ]

(* ------------------------------------------------------------------ *)
(* Memo publication under concurrency                                   *)
(* ------------------------------------------------------------------ *)

let race_tests =
  [
    tc "four domains race one structural query on unencoded documents"
      (fun () ->
        let db = mk_db () in
        let src = orders ^ "//id/ancestor::lineitem" in
        let want = strict db src in
        let c = Planner.compile src in
        let cat = Engine.catalog db in
        (* workers only record; the calling domain asserts *)
        let got = Array.make 4 "" and joined = Array.make 4 false in
        Xpar.parallel_for ~parallelism:4 ~chunk_size:1 0 4 (fun i ->
            let seq, plan, _ = Planner.execute cat c in
            got.(i) <- Engine.to_xml (List.of_seq seq);
            joined.(i) <-
              List.exists (contains_sub ~affix:"PSTRUCTJOIN") plan.Planner.notes);
        Array.iteri
          (fun i g ->
            check Alcotest.string (Printf.sprintf "domain %d ≡ strict" i) want g;
            check Alcotest.bool (Printf.sprintf "domain %d joined" i) true
              joined.(i))
          got;
        List.iter
          (fun root ->
            check Alcotest.(list string) "interval laws" []
              (encoding_problems root))
          (Ref_axes.documents (Engine.database db) "ORDERS.ORDDOC"));
    tc "read-only txn joins while a writer loads documents" (fun () ->
        let db = Engine.create () in
        ignore (sql db "CREATE TABLE t (id integer, doc XML)");
        Engine.load_documents db ~table:"t" ~column:"doc" special_docs;
        let src = special ^ "//*/parent::*" in
        let pinned = strict db src in
        let ro = Engine.Txn.begin_ ~mode:Engine.Txn.Read_only db in
        let reads = Array.make 8 "" in
        Xpar.parallel_for ~parallelism:2 ~chunk_size:1 0 2 (fun i ->
            if i = 0 then
              Engine.load_documents db ~table:"t" ~column:"doc"
                (List.concat (List.init 4 (fun _ -> special_docs)))
            else
              Array.iteri
                (fun k _ ->
                  reads.(k) <-
                    Engine.to_xml
                      (Engine.outcome_items (Engine.exec ~txn:ro db src)))
                reads);
        Engine.Txn.commit ro;
        Array.iter (check Alcotest.string "pinned read ≡ strict" pinned) reads;
        check Alcotest.string "live read ≡ strict after the load"
          (strict db src)
          (render (Engine.exec db src)));
  ]

(* ------------------------------------------------------------------ *)
(* Property: random documents × random axis pipelines                   *)
(* ------------------------------------------------------------------ *)

(** Random XML document: small tag/attribute alphabet so axis steps hit,
    with text, comments and nested same-name elements. *)
let gen_doc : string QCheck.Gen.t =
  let open QCheck.Gen in
  let tag = oneofl [ "a"; "b"; "c" ] in
  let attr = oneofl [ "x"; "y" ] in
  let rec node fuel =
    let* t = tag in
    let* nattrs = int_bound 2 in
    let* named =
      list_repeat nattrs
        (let* a = attr in
         let* v = int_bound 9 in
         return (a, v))
    in
    (* distinct attribute names only *)
    let attrs =
      List.map (fun (a, v) -> Printf.sprintf " %s=\"%d\"" a v)
        (List.sort_uniq (fun (a, _) (b, _) -> compare a b) named)
    in
    let* nkids = if fuel = 0 then return 0 else int_bound 3 in
    let* kids =
      list_repeat nkids
        (frequency
           [
             (4, node (fuel - 1));
             (1, return "leaf");
             (1, return "<!--note-->");
           ])
    in
    return
      (Printf.sprintf "<%s%s>%s</%s>" t (String.concat "" attrs)
         (String.concat "" kids) t)
  in
  node 3

let axis_names =
  [|
    "child";
    "descendant";
    "self";
    "descendant-or-self";
    "attribute";
    "parent";
    "ancestor";
    "ancestor-or-self";
    "following-sibling";
    "preceding-sibling";
  |]

let test_names = [| "*"; "a"; "b"; "c"; "x"; "node()"; "text()" |]

let gen_steps : string QCheck.Gen.t =
  let open QCheck.Gen in
  let* n = int_range 1 3 in
  let* steps =
    list_repeat n
      (let* a = int_bound (Array.length axis_names - 1) in
       let* t = int_bound (Array.length test_names - 1) in
       return (Printf.sprintf "/%s::%s" axis_names.(a) test_names.(t)))
  in
  return (String.concat "" steps)

let gen_case =
  QCheck.Gen.(
    let* ndocs = int_range 1 5 in
    let* docs = list_repeat ndocs gen_doc in
    let* steps = gen_steps in
    let* par = oneofl levels in
    return (docs, steps, par))

let arb_case =
  QCheck.make gen_case ~print:(fun (docs, steps, par) ->
      Printf.sprintf "docs=[%s] query=%s%s par=%d" (String.concat " " docs)
        special steps par)

let prop_structural_equiv_nav =
  QCheck.Test.make ~count:60
    ~name:
      "random docs × random axis pipeline: structural ≡ navigational ≡ \
       reference"
    arb_case
    (fun (docs, steps, par) ->
      let db = Engine.create () in
      ignore (sql db "CREATE TABLE t (id integer, doc XML)");
      Engine.load_documents db ~table:"t" ~column:"doc" docs;
      let src = special ^ steps in
      let nav = strict db src in
      let st = snapshot ~indexes:true ~par db src in
      (* the shape is always bare axis steps: the structural join must
         actually have served it, and never with indexes off *)
      st = nav
      && reference db src = Some nav
      && joins ~indexes:true db src
      && (not (joins ~indexes:false db src))
      && List.for_all
           (fun root -> encoding_problems root = [])
           (Ref_axes.documents (Engine.database db) "T.DOC"))

let suite =
  [
    ("struct:corpus", corpus_tests);
    ("struct:plan", plan_tests);
    ("struct:race", race_tests);
    ("struct:props", [ QCheck_alcotest.to_alcotest prop_structural_equiv_nav ]);
  ]
