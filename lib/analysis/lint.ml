(** Pitfall lint rules: the paper's Tips 1–12 and the Section 3.10
    "between" guidance as located diagnostics, plus rules derived from the
    same semantics ([XQLINT014] absolute paths in embedded queries,
    [XQLINT016] string-vs-number comparisons against a numeric index).

    This is the rule engine behind both [Engine.advise] (which renders
    the tip-numbered subset) and [Engine.analyze] / [\lint] (which report
    everything). The detail strings are the advisor's original wording. *)

open Xquery.Ast
module P = Eligibility.Predicate
module M = Eligibility.Match_index
module X = Xmlindex.Xindex
module Walk = Xquery.Walk

let mk ?pos (tip : int) fmt =
  Format.kasprintf
    (fun message ->
      {
        Diag.code = Rules.code_of_tip tip;
        severity = Rules.severity_of (Rules.code_of_tip tip);
        pos;
        message;
        tip = Some tip;
      })
    fmt

let has_nonpositional_pred steps =
  List.exists
    (function
      | SAxis { preds; _ } | SExpr { preds; _ } ->
          List.exists
            (fun p -> not (Eligibility.Extract.is_positional p))
            preds)
    steps

let is_boolean_valued = function
  | EGCmp _ | EVCmp _ | EAnd _ | EOr _ | EQuant _ | ECastable _ -> true
  | ECall { prefix = "" | "fn"; local; _ } ->
      List.mem local
        [ "exists"; "empty"; "not"; "boolean"; "contains"; "starts-with"; "ends-with"; "true"; "false" ]
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Locating catalog-derived findings                                   *)
(* ------------------------------------------------------------------ *)

(** The eligibility extractor identifies comparisons by their printed
    [source] string ("lhs <op> rhs"). To give catalog-based findings a
    position, render every comparison in the query the same way and map
    the strings back to recorded positions. *)
let comparison_loc_table (locs : Locs.t option) (q : query) :
    (string * Xdm.Srcloc.pos) list =
  match locs with
  | None -> []
  | Some locs ->
      let out = ref [] in
      let ops = [ "="; "!="; "<"; "<="; ">"; ">=" ] in
      Walk.iter_expr
        (fun e ->
          match e with
          | EGCmp (_, a, b) | EVCmp (_, a, b) -> (
              match Locs.find locs e with
              | Some pos ->
                  let sa = expr_to_string a and sb = expr_to_string b in
                  List.iter
                    (fun op ->
                      out :=
                        (sa ^ " " ^ op ^ " " ^ sb, pos)
                        :: (sb ^ " " ^ op ^ " " ^ sa, pos)
                        :: !out)
                    ops
              | None -> ())
          | _ -> ())
        q.body;
      !out

(* ------------------------------------------------------------------ *)
(* XQuery-level rules                                                  *)
(* ------------------------------------------------------------------ *)

(** Tips checked directly on an XQuery AST + its predicate tree, plus
    [XQLINT016]. [locs] provides positions when available. *)
let xquery_lint ?(catalog : Planner.catalog option)
    ?(xml_params : (string * string) list = [])
    ?(scalar_params : (string * Xdm.Atomic.atomic_type option) list = [])
    ?(locs : Locs.t option) (q : query) : Diag.t list =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let loc e = Option.bind locs (fun l -> Locs.find l e) in
  let cmp_locs = comparison_loc_table locs q in
  let source_loc (src : string) = List.assoc_opt src cmp_locs in
  let tree = Eligibility.Extract.analyze ~xml_params ~scalar_params q in
  let leaves = P.leaves tree in
  (* ---- Tip 1: cast-less joins ---- *)
  List.iter
    (fun (l : P.leaf) ->
      match l.P.operand with
      | P.OJoin { jcast = None; _ } ->
          add
            (mk ?pos:(source_loc l.P.source) 1
               "the comparison '%s' has no provable data type; no index \
                can serve it. Wrap both sides in casts like \
                $x/path/xs:double(.)"
               l.P.source)
      | _ -> ())
    leaves;
  (* ---- Tip 7: predicates under constructors in return clauses ---- *)
  Walk.iter_expr
    (function
      | EFlwor (_, EElem c) ->
          List.iter
            (function
              | CPExpr (EPath (_, steps) as pe) when has_nonpositional_pred steps ->
                  add
                    (mk ?pos:(loc pe) 7
                       "a predicate inside the constructor <%s> cannot \
                        eliminate documents: an empty element is returned \
                        for non-qualifying nodes, so no index applies \
                        (Query 19 vs Query 22)"
                       (Xdm.Qname.to_string c.cname))
              | _ -> ())
            c.ccontent
      | _ -> ())
    q.body;
  (* ---- Tips 8/9: constructed contexts ---- *)
  let ctor_vars = Hashtbl.create 4 in
  let rec returns_ctor = function
    | EElem _ | EElemComp _ -> true
    | EVar v -> Hashtbl.mem ctor_vars v
    | EFlwor (_, ret) -> returns_ctor ret
    | EIf (_, a, b) -> returns_ctor a || returns_ctor b
    | ESeq es -> List.exists returns_ctor es
    | EPath (Relative, [ SExpr { expr; _ } ]) -> returns_ctor expr
    | _ -> false
  in
  Walk.iter_expr
    (function
      | EFlwor (clauses, _) ->
          List.iter
            (function
              | CFor binds | CLet binds ->
                  List.iter
                    (fun (v, e) ->
                      if returns_ctor e then Hashtbl.replace ctor_vars v ())
                    binds
              | _ -> ())
            clauses
      | _ -> ())
    q.body;
  Walk.iter_expr
    (fun outer ->
      match outer with
      | EPath (Relative, SExpr { expr = EVar v; preds } :: rest)
        when Hashtbl.mem ctor_vars v ->
          let uses_absolute = ref false in
          List.iter
            (Walk.iter_expr (function
              | EPath ((Absolute | AbsDesc), _) -> uses_absolute := true
              | _ -> ()))
            preds;
          List.iter
            (Walk.iter_step (fun e ->
                 match e with
                 | EPath ((Absolute | AbsDesc), _) -> uses_absolute := true
                 | _ -> ()))
            rest;
          if !uses_absolute then
            add
              (mk ?pos:(loc outer) 8
                 "$%s is bound to a constructed element; an absolute path \
                  (leading '/') over it raises a type error at runtime \
                  (Query 25)"
                 v)
          else if
            has_nonpositional_pred rest
            || List.exists
                 (fun p -> not (Eligibility.Extract.is_positional p))
                 preds
          then
            add
              (mk ?pos:(loc outer) 9
                 "predicates over $%s apply to *constructed* nodes \
                  (fresh identities, untyped values); they cannot be \
                  pushed to the base collection, so no index applies \
                  (Query 26 vs Query 27)"
                 v)
      | EGCmp (_, a, b) | EVCmp (_, a, b) ->
          (* a comparison over a path rooted at a constructed value *)
          let ctor_path = function
            | EPath (Relative, SExpr { expr = EVar v; _ } :: _)
            | EVar v ->
                if Hashtbl.mem ctor_vars v then Some v else None
            | _ -> None
          in
          (match (ctor_path a, ctor_path b) with
          | Some v, _ | _, Some v ->
              add
                (mk ?pos:(loc outer) 9
                   "the comparison tests *constructed* nodes bound to $%s \
                    (untypedAtomic values, concatenated multi-values, \
                    fresh identities); rewrite the predicate against the \
                    base collection before construction (Query 26 vs \
                    Query 27)"
                   v)
          | None, None -> ())
      | _ -> ())
    q.body;
  (* ---- Tips 10/11/12 + XQLINT016 need the index catalog ---- *)
  (match catalog with
  | None -> ()
  | Some cat ->
      let indexes = cat.Planner.indexes in
      let module Pat = Xmlindex.Pattern in
      (* erase namespace constraints from a pattern *)
      let strip_ns_pattern (p : Pat.t) =
        Pat.of_steps
          (List.map
             (fun (st : Pat.pstep) ->
               {
                 st with
                 Pat.tests =
                   List.map
                     (function
                       | Pat.TestName q ->
                           Pat.TestName { q with Xdm.Qname.uri = "" }
                       | Pat.TestNsStar _ -> Pat.TestStar
                       | t -> t)
                     st.Pat.tests;
               })
             p.Pat.steps)
      in
      let has_ns (p : Pat.t) =
        List.exists
          (fun (st : Pat.pstep) ->
            List.exists
              (function
                | Pat.TestName q -> q.Xdm.Qname.uri <> ""
                | Pat.TestNsStar _ -> true
                | _ -> false)
              st.Pat.tests)
          p.Pat.steps
      in
      (* drop a trailing text() step *)
      let strip_text_pattern (p : Pat.t) =
        match List.rev p.Pat.steps with
        | last :: rest when last.Pat.tests = [ Pat.TestKindText ] ->
            Some (Pat.of_steps (List.rev rest))
        | _ -> None
      in
      List.iter
        (fun (l : P.leaf) ->
          let pos = source_loc l.P.source in
          (* XQLINT016: string literal against a numeric index *)
          (match l.P.operand with
          | P.OConst c when Xdm.Atomic.type_of c = Xdm.Atomic.TString ->
              List.iter
                (fun (idx : X.t) ->
                  if
                    idx.X.def.X.vtype = X.VDouble
                    && Xmlindex.Containment.contains idx.X.def.X.pattern
                         l.P.path
                  then
                    add
                      {
                        Diag.code = "XQLINT016";
                        severity = Rules.severity_of "XQLINT016";
                        pos;
                        message =
                          Printf.sprintf
                            "'%s' compares the indexed path against a \
                             *string* literal: untyped data compares as \
                             string, so the DOUBLE index %s cannot serve \
                             the predicate (Section 3.1). Use a numeric \
                             literal"
                            l.P.source idx.X.def.X.iname;
                        tip = None;
                      })
                indexes
          | _ -> ());
          List.iter
            (fun (idx : X.t) ->
              match M.check_leaf idx.X.def l with
              | Error M.RNotContained ->
                  let qp = Xmlindex.Pattern.canonical_string l.P.path in
                  let ip =
                    Xmlindex.Pattern.canonical_string idx.X.def.X.pattern
                  in
                  (* Tip 10: the mismatch disappears when namespaces are
                     erased from both sides *)
                  if
                    (has_ns l.P.path || has_ns idx.X.def.X.pattern)
                    && Xmlindex.Containment.contains
                         (strip_ns_pattern idx.X.def.X.pattern)
                         (strip_ns_pattern l.P.path)
                  then
                    add
                      (mk ?pos 10
                         "index %s differs from the query path only in \
                          namespaces (index: %s, query: %s); declare the \
                          same namespaces or use *:name wildcards in the \
                          index"
                         idx.X.def.X.iname ip qp);
                  (* Tip 11: the mismatch is a trailing /text() step *)
                  (let q_stripped = strip_text_pattern l.P.path in
                   let i_stripped =
                     strip_text_pattern idx.X.def.X.pattern
                   in
                   let realigned =
                     match (q_stripped, i_stripped) with
                     | Some q', None ->
                         Xmlindex.Containment.contains idx.X.def.X.pattern q'
                     | None, Some i' ->
                         Xmlindex.Containment.contains i' l.P.path
                     | _ -> false
                   in
                   if realigned then
                     add
                       (mk ?pos 11
                          "index %s and the query disagree on a trailing \
                           /text() step (index: %s, query: %s); they index \
                           different nodes (Query 29)"
                          idx.X.def.X.iname ip qp));
                  (* attribute reachability: query wants attributes, index
                     pattern ends in a child-axis step *)
                  let q_last_attr =
                    match List.rev l.P.path.Xmlindex.Pattern.steps with
                    | s :: _ -> s.Xmlindex.Pattern.attr
                    | [] -> false
                  in
                  let i_last_attr =
                    match List.rev idx.X.def.X.pattern.Xmlindex.Pattern.steps with
                    | s :: _ -> s.Xmlindex.Pattern.attr
                    | [] -> false
                  in
                  if q_last_attr && not i_last_attr then
                    add
                      (mk ?pos 12
                         "index %s (%s) can never contain attribute nodes: \
                          child-axis steps (including //* and //node()) do \
                          not reach attributes; use //@* (Section 3.9)"
                         idx.X.def.X.iname ip)
              | _ -> ())
            indexes)
        leaves);
  (* ---- Section 3.10: unmergeable between pairs ---- *)
  let rec scan_between = function
    | P.PAnd children ->
        let consts =
          List.filter_map
            (function
              | P.PLeaf l when (match l.P.operand with P.OConst _ -> true | _ -> false)
                -> Some l
              | _ -> None)
            children
        in
        List.iter
          (fun (l : P.leaf) ->
            if l.P.op = P.CGt || l.P.op = P.CGe then
              List.iter
                (fun (u : P.leaf) ->
                  if
                    (u.P.op = P.CLt || u.P.op = P.CLe)
                    && Xmlindex.Pattern.canonical_string u.P.path
                       = Xmlindex.Pattern.canonical_string l.P.path
                    && not
                         ((l.P.value_cmp && u.P.value_cmp)
                         || (l.P.anchor = u.P.anchor && l.P.singleton_path
                            && u.P.singleton_path))
                  then
                    add
                      (mk ?pos:(source_loc l.P.source) 13
                         "'%s' and '%s' look like a between, but the \
                          compared item is not provably a singleton: a \
                          multi-valued node could satisfy each bound with \
                          a different value, so two index scans must be \
                          ANDed. Use value comparisons (gt/lt), the self \
                          axis (price/data()[. > X and . < Y]) or an \
                          attribute"
                         l.P.source u.P.source))
                consts)
          consts;
        List.iter scan_between children
    | P.POr children -> List.iter scan_between children
    | _ -> ()
  in
  scan_between tree;
  List.rev !diags

(* ------------------------------------------------------------------ *)
(* SQL-level rules                                                     *)
(* ------------------------------------------------------------------ *)

(** Map a position inside an embedded query literal to the enclosing SQL
    statement ([+1] skips the opening quote; exact as long as the literal
    contains no doubled-quote escapes before the position). *)
let map_embed_pos ~(src : string) ~(offset : int) (p : Xdm.Srcloc.pos) :
    Xdm.Srcloc.pos =
  Xdm.Srcloc.of_offset src (offset + 1 + p.Xdm.Srcloc.offset)

(** Checks that need SQL structure (Tips 2–6 and [XQLINT014]), followed
    by the XQuery-level rules on every embedded query, with positions
    mapped into the SQL statement. *)
let sql_lint ?(catalog : Planner.catalog option) ~(src : string)
    (stmt : Sqlxml.Sql_ast.stmt) : Diag.t list =
  let module A = Sqlxml.Sql_ast in
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let embed_pos (e : A.xq_embed) =
    Some (Xdm.Srcloc.of_offset src e.A.xq_offset)
  in
  let embedded_queries = ref [] in
  (* XQLINT014: embedded queries evaluate without a context item *)
  let lint_absolute (e : A.xq_embed) =
    Walk.iter_expr
      (fun ae ->
        match ae with
        | EPath ((Absolute | AbsDesc), _) ->
            let pos =
              match Locs.find e.A.xq_locs ae with
              | Some p -> Some (map_embed_pos ~src ~offset:e.A.xq_offset p)
              | None -> embed_pos e
            in
            add
              (Diag.make ?pos ~code:"XQLINT014" ~severity:Diag.Warning
                 "absolute path inside an embedded XQuery: XMLEXISTS / \
                  XMLQUERY / XMLTABLE evaluate without a context item, so \
                  a leading '/' raises XPDY0002 at runtime; root the path \
                  at a PASSING variable")
        | _ -> ())
      e.A.xq_query.body
  in
  let check_embed (e : A.xq_embed) =
    embedded_queries := e :: !embedded_queries;
    lint_absolute e
  in
  (match stmt with
  | A.Select s ->
      (* collect embedded queries everywhere *)
      let rec walk_sexpr = function
        | A.SXmlQuery e -> check_embed e
        | A.SXmlCast (e, _) -> walk_sexpr e
        | A.SXmlElement (_, args) -> List.iter walk_sexpr args
        | _ -> ()
      in
      let rec walk_cond = function
        | A.CAnd (a, b) | A.COr (a, b) -> walk_cond a; walk_cond b
        | A.CNot a -> walk_cond a
        | A.CCmp (_, a, b) -> walk_sexpr a; walk_sexpr b
        | A.CXmlExists e -> check_embed e
        | A.CIsNull (e, _) -> walk_sexpr e
      in
      List.iter
        (function A.SelExpr (e, _) -> walk_sexpr e | A.SelStar -> ())
        s.A.sel_list;
      Option.iter walk_cond s.A.where;
      (* row producers get the context-item check only: the advisor's
         XQuery-level tips never ran on them, and [Engine.advise] output
         must stay stable *)
      List.iter
        (function
          | A.TRXmlTable xt -> lint_absolute xt.A.xt_embed
          | A.TRTable _ -> ())
        s.A.from;
      (* ---- Tip 2: XMLQuery-with-predicates in the select list ---- *)
      let has_exists_filter =
        match s.A.where with
        | Some w ->
            List.exists
              (function A.CXmlExists _ -> true | _ -> false)
              (A.conjuncts w)
        | None -> false
      in
      List.iter
        (function
          | A.SelExpr (A.SXmlQuery e, _) ->
              let has_preds = ref false in
              Walk.iter_expr
                (function
                  | EPath (_, steps) when has_nonpositional_pred steps ->
                      has_preds := true
                  | _ -> ())
                e.A.xq_query.body;
              if !has_preds && not has_exists_filter then
                add
                  (mk ?pos:(embed_pos e) 2
                     "XMLQuery in the select list returns a (possibly \
                      empty) value for *every* row — its predicates \
                      eliminate nothing and no index applies (Query 5). \
                      Add an XMLEXISTS to the WHERE clause, or use the \
                      stand-alone XQuery interface (Query 7)")
          | _ -> ())
        s.A.sel_list;
      (* ---- Tip 3: boolean result inside XMLEXISTS ---- *)
      (match s.A.where with
      | Some w ->
          List.iter
            (function
              | A.CXmlExists e when is_boolean_valued e.A.xq_query.body ->
                  add
                    (mk ?pos:(embed_pos e) 3
                       "the XQuery inside XMLEXISTS ('%s') returns a \
                        boolean: XMLEXISTS tests for *non-emptiness*, and \
                        a false value is still one item, so every row \
                        qualifies (Query 9). Move the condition into a \
                        predicate: [...]"
                       e.A.xq_src)
              | _ -> ())
            (A.conjuncts w)
      | None -> ());
      (* ---- Tip 4: predicates in XMLTABLE COLUMNS ---- *)
      List.iter
        (function
          | A.TRXmlTable xt ->
              List.iter
                (fun (c : A.xt_col) ->
                  let has_preds = ref false in
                  Walk.iter_expr
                    (function
                      | EPath (_, steps) when has_nonpositional_pred steps ->
                          has_preds := true
                      | _ -> ())
                    c.A.xc_query.body;
                  if !has_preds then
                    add
                      (mk
                         ~pos:(Xdm.Srcloc.of_offset src c.A.xc_offset)
                         4
                         "the predicate in COLUMNS %s PATH '%s' only NULLs \
                          the cell — it never drops rows and is not index \
                          eligible (Query 12). Move it to the row-producer \
                          expression"
                         c.A.xc_name c.A.xc_path_src))
                xt.A.xt_cols
          | A.TRTable _ -> ())
        s.A.from;
      (* ---- Tips 5/6: joins expressed on the SQL side ---- *)
      (match s.A.where with
      | Some w ->
          List.iter
            (function
              | A.CCmp (_, a, b) -> (
                  let is_xmlcast_q = function
                    | A.SXmlCast (A.SXmlQuery _, _) -> true
                    | _ -> false
                  in
                  let cast_pos =
                    match (a, b) with
                    | A.SXmlCast (A.SXmlQuery e, _), _
                    | _, A.SXmlCast (A.SXmlQuery e, _) ->
                        embed_pos e
                    | _ -> None
                  in
                  match (is_xmlcast_q a, is_xmlcast_q b) with
                  | true, true ->
                      add
                        (mk ?pos:cast_pos 6
                           "this join compares two XMLCAST(XMLQUERY(...)) \
                            values with SQL semantics: no XML index (and \
                            no relational index) is eligible, and XMLCAST \
                            raises errors on multi-valued or over-long \
                            items (Query 15). Pass both XML values into \
                            one XMLEXISTS and join in XQuery with \
                            explicit casts (Query 16)")
                  | true, false | false, true ->
                      add
                        (mk ?pos:cast_pos 5
                           "this join condition mixes SQL and XML values \
                            via XMLCAST: only a relational index on the \
                            SQL side is eligible, and XMLCAST enforces \
                            singleton/length rules the XQuery comparison \
                            does not (Query 14 vs Query 13). Put the \
                            condition on the side that has the index")
                  | false, false -> ())
              | _ -> ())
            (A.conjuncts w)
      | None -> ());
      ()
  | _ -> ());
  (* run the XQuery-level rules on each embedded query, mapping positions
     into the SQL statement *)
  let xq_diags =
    List.concat_map
      (fun (e : Sqlxml.Sql_ast.xq_embed) ->
        let q =
          try
            Xquery.Static.resolve
              ~external_vars:(List.map fst e.xq_passing)
              ~locs:e.xq_locs e.xq_query
          with _ -> e.xq_query
        in
        let ds =
          try xquery_lint ?catalog ~locs:e.xq_locs q with _ -> []
        in
        List.map
          (fun (d : Diag.t) ->
            {
              d with
              Diag.pos =
                Option.map
                  (fun p -> map_embed_pos ~src ~offset:e.xq_offset p)
                  d.Diag.pos;
            })
          ds)
      !embedded_queries
  in
  List.rev !diags @ xq_diags
