(** Unit tests for the XDM layer: dates, atomics, nodes, items. *)

open Xdm
open Helpers

(* ------------------------------------------------------------------ *)
(* Dates                                                               *)
(* ------------------------------------------------------------------ *)

let date_tests =
  [
    tc "parse simple date" (fun () ->
        match Xdate.date_of_string_opt "2001-01-01" with
        | Some d ->
            check Alcotest.int "year" 2001 d.Xdate.year;
            check Alcotest.int "month" 1 d.Xdate.month;
            check Alcotest.int "day" 1 d.Xdate.day
        | None -> Alcotest.fail "should parse");
    tc "parse date with Z" (fun () ->
        match Xdate.date_of_string_opt "2006-09-15Z" with
        | Some d -> check Alcotest.(option int) "tz" (Some 0) d.Xdate.tz
        | None -> Alcotest.fail "should parse");
    tc "parse date with offset" (fun () ->
        match Xdate.date_of_string_opt "2006-09-15-05:00" with
        | Some d -> check Alcotest.(option int) "tz" (Some (-300)) d.Xdate.tz
        | None -> Alcotest.fail "should parse");
    tc "reject US-style date (paper's 'January 1, 2001')" (fun () ->
        check Alcotest.bool "no parse" true
          (Xdate.date_of_string_opt "January 1, 2001" = None));
    tc "reject month 13" (fun () ->
        check Alcotest.bool "no parse" true
          (Xdate.date_of_string_opt "2001-13-01" = None));
    tc "reject Feb 30" (fun () ->
        check Alcotest.bool "no parse" true
          (Xdate.date_of_string_opt "2001-02-30" = None));
    tc "accept Feb 29 in leap year" (fun () ->
        check Alcotest.bool "parses" true
          (Xdate.date_of_string_opt "2004-02-29" <> None));
    tc "reject Feb 29 in non-leap year" (fun () ->
        check Alcotest.bool "no parse" true
          (Xdate.date_of_string_opt "2003-02-29" = None));
    tc "date ordering" (fun () ->
        let d s = Option.get (Xdate.date_of_string_opt s) in
        check Alcotest.bool "lt" true
          (Xdate.compare_date (d "2001-01-31") (d "2001-02-01") < 0));
    tc "timezone-normalized comparison" (fun () ->
        let d s = Option.get (Xdate.date_of_string_opt s) in
        (* 2001-01-01 at +14:00 begins before 2001-01-01Z *)
        check Alcotest.bool "tz order" true
          (Xdate.compare_date (d "2001-01-01+14:00") (d "2001-01-01Z") < 0));
    tc "roundtrip date" (fun () ->
        let d = Option.get (Xdate.date_of_string_opt "2006-09-15-05:00") in
        check Alcotest.string "print" "2006-09-15-05:00" (Xdate.date_to_string d));
    tc "parse dateTime" (fun () ->
        match Xdate.datetime_of_string_opt "2006-09-15T13:45:30.25Z" with
        | Some t ->
            check Alcotest.int "hour" 13 t.Xdate.hour;
            check (Alcotest.float 1e-9) "second" 30.25 t.Xdate.second
        | None -> Alcotest.fail "should parse");
    tc "dateTime ordering across timezones" (fun () ->
        let t s = Option.get (Xdate.datetime_of_string_opt s) in
        check Alcotest.int "equal instants" 0
          (Xdate.compare_datetime
             (t "2006-09-15T12:00:00+02:00")
             (t "2006-09-15T10:00:00Z")));
    tc "roundtrip dateTime" (fun () ->
        let t = Option.get (Xdate.datetime_of_string_opt "2006-09-15T13:45:30Z") in
        check Alcotest.string "print" "2006-09-15T13:45:30Z"
          (Xdate.datetime_to_string t));
    tc "reject bare time" (fun () ->
        check Alcotest.bool "no parse" true
          (Xdate.datetime_of_string_opt "13:45:30" = None));
  ]

(* ------------------------------------------------------------------ *)
(* Atomic values                                                       *)
(* ------------------------------------------------------------------ *)

let atomic_tests =
  [
    tc "double canonical form drops .0" (fun () ->
        check Alcotest.string "100" "100"
          (Atomic.string_value (Atomic.Double 100.)));
    tc "double specials" (fun () ->
        check Alcotest.string "INF" "INF" (Atomic.string_value (Atomic.Double infinity));
        check Alcotest.string "NaN" "NaN" (Atomic.string_value (Atomic.Double nan)));
    tc "cast untyped to double" (fun () ->
        match Atomic.cast_opt (Atomic.Untyped " 99.50 ") Atomic.TDouble with
        | Some (Atomic.Double f) -> check (Alcotest.float 1e-9) "v" 99.5 f
        | _ -> Alcotest.fail "cast failed");
    tc "tolerant: '99.50USD' does not cast to double" (fun () ->
        check Alcotest.bool "None" true
          (Atomic.cast_opt (Atomic.Untyped "99.50USD") Atomic.TDouble = None));
    tc "'20 USD' does not cast to double (paper 3.1)" (fun () ->
        check Alcotest.bool "None" true
          (Atomic.cast_opt (Atomic.Untyped "20 USD") Atomic.TDouble = None));
    tc "everything casts to string" (fun () ->
        check Alcotest.bool "Some" true
          (Atomic.cast_opt (Atomic.Untyped "99.50USD") Atomic.TString <> None));
    tc "cast string to integer rejects decimals" (fun () ->
        check Alcotest.bool "None" true
          (Atomic.cast_opt (Atomic.Str "1.5") Atomic.TInteger = None));
    tc "cast accepts leading +" (fun () ->
        check Alcotest.bool "Some" true
          (Atomic.cast_opt (Atomic.Str "+42") Atomic.TInteger
          = Some (Atomic.Integer 42L)));
    tc "hex floats are not valid XML doubles" (fun () ->
        check Alcotest.bool "None" true
          (Atomic.cast_opt (Atomic.Str "0x1p4") Atomic.TDouble = None));
    tc "decimal rejects exponent" (fun () ->
        check Alcotest.bool "None" true
          (Atomic.cast_opt (Atomic.Str "1e3") Atomic.TDecimal = None));
    tc "1E3 = 1000 as doubles but not as strings (paper 3.1)" (fun () ->
        let d1 = Atomic.cast (Atomic.Str "1E3") Atomic.TDouble in
        let d2 = Atomic.cast (Atomic.Str "1000") Atomic.TDouble in
        check Alcotest.bool "numeric eq" true (Atomic.compare_values d1 d2 = Atomic.Eq);
        check Alcotest.bool "string neq" true
          (Atomic.compare_values (Atomic.Str "1E3") (Atomic.Str "1000") <> Atomic.Eq));
    tc "integer compares exactly, double rounds (paper 3.6 case 2)" (fun () ->
        let big = 9007199254740993L (* 2^53 + 1 *) in
        let near = 9007199254740992L in
        check Alcotest.bool "int64 neq" true
          (Atomic.compare_values (Atomic.Integer big) (Atomic.Integer near)
          <> Atomic.Eq);
        let as_dbl i = Atomic.cast (Atomic.Integer i) Atomic.TDouble in
        check Alcotest.bool "double collision" true
          (Atomic.compare_values (as_dbl big) (as_dbl near) = Atomic.Eq));
    tc "numeric promotion integer vs double" (fun () ->
        check Alcotest.bool "1 < 1.5" true
          (Atomic.compare_values (Atomic.Integer 1L) (Atomic.Double 1.5) = Atomic.Lt));
    tc "string vs integer is uncomparable" (fun () ->
        check Alcotest.bool "uncomparable" true
          (Atomic.compare_values (Atomic.Str "1") (Atomic.Integer 1L)
          = Atomic.Uncomparable));
    tc "date cast from string" (fun () ->
        check Alcotest.bool "Some" true
          (Atomic.cast_opt (Atomic.Untyped "2001-01-01") Atomic.TDate <> None));
    tc "date to dateTime cast" (fun () ->
        match Atomic.cast_opt (Atomic.Untyped "2001-01-01") Atomic.TDate with
        | Some d -> (
            match Atomic.cast_opt d Atomic.TDateTime with
            | Some (Atomic.DateTime t) ->
                check Alcotest.int "hour" 0 t.Xdate.hour
            | _ -> Alcotest.fail "cast failed")
        | None -> Alcotest.fail "date parse failed");
    tc "boolean lexical space" (fun () ->
        check Alcotest.bool "1 is true" true
          (Atomic.cast_opt (Atomic.Str "1") Atomic.TBoolean
          = Some (Atomic.Boolean true));
        check Alcotest.bool "'yes' invalid" true
          (Atomic.cast_opt (Atomic.Str "yes") Atomic.TBoolean = None));
  ]

(* ------------------------------------------------------------------ *)
(* Nodes                                                               *)
(* ------------------------------------------------------------------ *)

let node_tests =
  [
    tc "node identity distinct on copy" (fun () ->
        let d = parse_doc "<a><b/></a>" in
        let c = Node.copy d in
        check Alcotest.bool "not identical" false (Node.identical d c));
    tc "document order: attributes before children" (fun () ->
        let d = parse_doc "<a x=\"1\"><b/></a>" in
        let a = List.hd d.Node.children in
        let attr = List.hd a.Node.attrs in
        let b = List.hd a.Node.children in
        check Alcotest.bool "attr < child" true (Node.doc_compare attr b < 0));
    tc "document order stable after mutation" (fun () ->
        let d = parse_doc "<a><b/><c/></a>" in
        let a = List.hd d.Node.children in
        let b = List.hd a.Node.children in
        Node.append_child a (Node.element (Qname.make "z"));
        let z = List.nth a.Node.children 2 in
        check Alcotest.bool "b < z" true (Node.doc_compare b z < 0));
    tc "string value concatenates descendant text" (fun () ->
        let d = parse_doc "<a>x<b>y</b>z</a>" in
        check Alcotest.string "sv" "xyz" (Node.string_value d));
    tc "typed value of untyped element is untypedAtomic" (fun () ->
        let d = parse_doc "<a>42</a>" in
        match Node.typed_value (List.hd d.Node.children) with
        | [ Atomic.Untyped "42" ] -> ()
        | _ -> Alcotest.fail "expected untypedAtomic 42");
    tc "typed value of annotated element" (fun () ->
        let d = parse_doc "<a>42</a>" in
        let a = List.hd d.Node.children in
        a.Node.ann <- Node.SimpleType Atomic.TDouble;
        match Node.typed_value a with
        | [ Atomic.Double 42. ] -> ()
        | _ -> Alcotest.fail "expected double 42");
    tc "copy strips type annotations (construction mode strip)" (fun () ->
        let d = parse_doc "<a>42</a>" in
        let a = List.hd d.Node.children in
        a.Node.ann <- Node.SimpleType Atomic.TDouble;
        let c = Node.copy a in
        check Alcotest.bool "untyped" true (c.Node.ann = Node.Untyped));
    tc "rooted path includes attribute marker" (fun () ->
        let d = parse_doc "<order><lineitem price=\"9\"/></order>" in
        let li = List.hd (List.hd d.Node.children).Node.children in
        let price = List.hd li.Node.attrs in
        check Alcotest.string "path" "/order/lineitem/@price"
          (Node.path_key price));
    tc "rooted path with namespaces uses Clark names" (fun () ->
        let d = parse_doc "<o xmlns=\"urn:x\"><p/></o>" in
        let p = List.hd (List.hd d.Node.children).Node.children in
        check Alcotest.string "path" "/{urn:x}o/{urn:x}p" (Node.path_key p));
    tc "descendants order" (fun () ->
        let d = parse_doc "<a><b><c/></b><e/></a>" in
        let names =
          List.filter_map
            (fun (n : Node.t) -> Option.map Qname.to_string n.Node.name)
            (Node.descendants d)
        in
        check Alcotest.(list string) "preorder" [ "a"; "b"; "c"; "e" ] names);
    tc "memo: a document computes once, copies and mutation start over"
      (fun () ->
        let module S = Xmlindex.Structindex in
        let d = parse_doc "<a x=\"1\"><b/></a>" in
        let e = S.encoding d in
        check Alcotest.bool "memoized" true (S.encoding d == e);
        check Alcotest.int "nodes" 4 (Array.length e.S.nodes);
        let c = Node.copy d in
        check Alcotest.bool "a copy has its own memo" true (S.encoding c != e);
        Node.append_child (List.hd d.Node.children) (Node.element (Qname.make "z"));
        check Alcotest.int "mutation re-encodes" 5
          (Array.length (S.encoding d).S.nodes));
    tc "memo: a parentless element is encoded at every use" (fun () ->
        let module S = Xmlindex.Structindex in
        let el = List.hd (parse_doc "<a><b/></a>").Node.children in
        el.Node.parent <- None;
        let e = S.encoding el in
        check Alcotest.int "nodes" 2 (Array.length e.S.nodes);
        check Alcotest.bool "not memoized" true (S.encoding el != e));
  ]

(* ------------------------------------------------------------------ *)
(* Items                                                               *)
(* ------------------------------------------------------------------ *)

let item_tests =
  [
    tc "ebv of empty is false" (fun () ->
        check Alcotest.bool "ebv" false (Item.ebv []));
    tc "ebv of any node is true" (fun () ->
        check Alcotest.bool "ebv" true (Item.ebv [ Item.N (parse_doc "<a/>") ]));
    tc "ebv of false boolean" (fun () ->
        check Alcotest.bool "ebv" false (Item.ebv [ Item.A (Atomic.Boolean false) ]));
    tc "ebv of empty string is false, non-empty true" (fun () ->
        check Alcotest.bool "empty" false (Item.ebv [ Item.A (Atomic.Str "") ]);
        check Alcotest.bool "nonempty" true (Item.ebv [ Item.A (Atomic.Str "x") ]));
    tc "ebv of zero and NaN" (fun () ->
        check Alcotest.bool "0" false (Item.ebv [ Item.A (Atomic.Integer 0L) ]);
        check Alcotest.bool "NaN" false (Item.ebv [ Item.A (Atomic.Double nan) ]));
    tc "ebv of multi-atomic errors" (fun () ->
        expect_error "FORG0006" (fun () ->
            Item.ebv [ Item.A (Atomic.Integer 1L); Item.A (Atomic.Integer 2L) ]));
    tc "atomize mixes nodes and atomics" (fun () ->
        let d = parse_doc "<a>7</a>" in
        let got =
          Item.atomize [ Item.N (List.hd d.Node.children); Item.A (Atomic.Integer 1L) ]
        in
        check Alcotest.int "len" 2 (List.length got));
    tc "doc_order_dedup removes duplicate identities" (fun () ->
        let d = parse_doc "<a><b/></a>" in
        let b = List.hd (List.hd d.Node.children).Node.children in
        check Alcotest.int "dedup" 1
          (List.length (Item.doc_order_dedup [ b; b; b ])));
  ]

let suite =
  [
    ("xdm:dates", date_tests);
    ("xdm:atomics", atomic_tests);
    ("xdm:nodes", node_tests);
    ("xdm:items", item_tests);
  ]
