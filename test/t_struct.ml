(** Differential structural-join ≡ tree-walk harness.

    The structural (pre/post) index answers predicate-free axis
    pipelines as array joins; the tree-walk evaluator answers the same
    queries by navigation. The two must be byte-identical on every axis
    — forward, reverse and sibling — over the paper corpus and over
    qcheck-random documents, at parallelism 1, 2 and 4. The plan must
    say which path ran ([PSTRUCTJOIN ...] vs [nav-axis: ...] notes), the
    Xprof counters must charge the structural probes, and
    [Engine.check_consistency] must hold the encodings to the interval
    laws throughout. *)

open Helpers

let levels = [ 1; 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Fixtures                                                            *)
(* ------------------------------------------------------------------ *)

(** The paper database plus a structural index on each XML column. *)
let mk_db () =
  let db = paper_db ~n_orders:60 () in
  ignore (sql db "CREATE STRUCTURAL INDEX s_ord ON orders(orddoc)");
  ignore (sql db "CREATE STRUCTURAL INDEX s_cust ON customer(cdoc)");
  db

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
  ignore (sql db "CREATE STRUCTURAL INDEX s_t ON t(doc)");
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

(** Structural (indexes on) ≡ navigational (indexes off) ≡ strict
    tree-walk at every parallelism level, byte-identical. *)
let assert_struct_diff db (id : string) (src : string) =
  let base = strict db src in
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
    (* reverse axes — tree-walk-only before the structural index *)
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
          (List.exists (contains_sub ~affix:"parent::*") plan.Planner.notes);
        check Alcotest.bool "s_ord in indexes_used" true
          (List.mem "s_ord" (used plan)));
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
    tc "without a structural index the reverse axis notes nav-axis"
      (fun () ->
        let db = paper_db ~n_orders:5 () in
        let _, plan = xquery db (orders ^ "//product/parent::*") in
        check Alcotest.bool "no PSTRUCTJOIN note" false
          (List.exists (contains_sub ~affix:"PSTRUCTJOIN") plan.Planner.notes);
        check Alcotest.bool "nav-axis note present" true
          (List.exists
             (contains_sub ~affix:"nav-axis: parent (tree-walk)")
             plan.Planner.notes));
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
        let sidx =
          List.find
            (fun (s : Xmlindex.Structindex.t) ->
              s.Xmlindex.Structindex.def.Xmlindex.Structindex.iname = "s_ord")
            (Engine.struct_indexes db)
        in
        let probes_during f =
          let before = fst (Xmlindex.Structindex.stats sidx) in
          f ();
          fst (Xmlindex.Structindex.stats sidx) - before
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
          (Printf.sprintf "one pull probes %d < drained %d" one_pull drained)
          true
          (0 < one_pull && one_pull < drained));
    tc "DROP INDEX removes the structural index and its catalog entry"
      (fun () ->
        let db = mk_db () in
        check Alcotest.int "two structural indexes" 2
          (List.length (Engine.struct_indexes db));
        ignore (sql db "DROP INDEX s_cust");
        check Alcotest.int "one left" 1
          (List.length (Engine.struct_indexes db));
        let _, plan = xquery db (orders ^ "//product/parent::*") in
        check Alcotest.bool "survivor still serves orders" true
          (List.mem "s_ord" (used plan));
        ignore (sql db "DROP INDEX s_ord");
        let _, plan = xquery db (orders ^ "//product/parent::*") in
        check Alcotest.bool "no structural join after drop" false
          (List.exists (contains_sub ~affix:"PSTRUCTJOIN") plan.Planner.notes));
    tc "catalog generation bumps on CREATE STRUCTURAL INDEX (plan cache)"
      (fun () ->
        let db = paper_db ~n_orders:5 () in
        let src = orders ^ "//product/parent::*" in
        let _, plan = xquery db src in
        check Alcotest.bool "tree-walk before the index" false
          (List.exists (contains_sub ~affix:"PSTRUCTJOIN") plan.Planner.notes);
        ignore (sql db "CREATE STRUCTURAL INDEX s_o ON orders(orddoc)");
        let _, plan = xquery db src in
        check Alcotest.bool "same statement text replans structurally" true
          (List.exists (contains_sub ~affix:"PSTRUCTJOIN") plan.Planner.notes));
    tc "advisor tip 14 suggests a structural index, and stops once built"
      (fun () ->
        let db = paper_db ~n_orders:5 () in
        let src = orders ^ "//product/parent::*" in
        let tips = List.map (fun a -> a.Engine.Advisor.tip) (Engine.advise db src) in
        check Alcotest.bool "tip 14 before the index" true (List.mem 14 tips);
        ignore (sql db "CREATE STRUCTURAL INDEX s_o ON orders(orddoc)");
        let tips = List.map (fun a -> a.Engine.Advisor.tip) (Engine.advise db src) in
        check Alcotest.bool "tip 14 gone after the index" false
          (List.mem 14 tips));
    tc "check_consistency validates the structural encodings" (fun () ->
        let db = mk_db () in
        ignore (sql db "INSERT INTO orders VALUES (990, '<order><lineitem \
                        quantity=\"1\"/></order>')");
        List.iter
          (fun (iname, diffs) ->
            check Alcotest.(list string) (iname ^ " consistent") [] diffs)
          (Engine.check_consistency db);
        check Alcotest.bool "structural indexes among the reports" true
          (List.mem_assoc "s_ord" (Engine.check_consistency db)));
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
    ~name:"random docs × random axis pipeline: structural ≡ navigational"
    arb_case
    (fun (docs, steps, par) ->
      let db = Engine.create () in
      ignore (sql db "CREATE TABLE t (id integer, doc XML)");
      Engine.load_documents db ~table:"t" ~column:"doc" docs;
      ignore (sql db "CREATE STRUCTURAL INDEX s_t ON t(doc)");
      let src = special ^ steps in
      let nav = strict db src in
      let st = snapshot ~indexes:true ~par db src in
      (* the shape is always bare axis steps: the structural join must
         actually have served it (not silently fallen back) *)
      let o = Engine.exec db src in
      st = nav
      && List.exists (contains_sub ~affix:"PSTRUCTJOIN") o.Engine.notes
      && List.for_all
           (fun (_, diffs) -> diffs = [])
           (Engine.check_consistency db))

let suite =
  [
    ("struct:corpus", corpus_tests);
    ("struct:plan", plan_tests);
    ("struct:props", [ QCheck_alcotest.to_alcotest prop_structural_equiv_nav ]);
  ]
