(** Predicate extraction: from a (statically resolved) XQuery AST to the
    filtering-predicate normal form of [Predicate].

    This pass encodes the heart of the paper's Section 3:

    - [for]-clause bindings iterate, so empty bindings kill tuples →
      predicates embedded in a for-binding path are filtering (Query 17);
    - [let]-clause bindings preserve empty sequences → their embedded
      predicates are *pending* and only become filtering when the bound
      variable is later consumed in a filtering position, e.g. a [where]
      clause (Queries 18/21, Section 3.4);
    - element constructors always produce a node → nothing below a
      constructor can eliminate documents (Query 19 vs Query 22);
    - a bare path in a result or where position is an existence
      (structural) predicate;
    - general vs value comparisons and the operand's *type* are recorded so
      the eligibility matcher can implement Section 3.1;
    - comparisons against externally passed variables keep the SQL-side
      type (Query 13's [$pid]). *)

open Xquery.Ast
module P = Predicate
module Pat = Xmlindex.Pattern
module SMap = Map.Make (String)

(** A derived path: absolute navigation from the documents of a
    collection, plus predicates collected along the way. *)
type dpath = {
  collection : string;
  steps : Pat.pstep list;
  gap : bool;  (** a pending [//] separator not yet consumed by a step *)
  pending : P.t;  (** predicates embedded in the navigation *)
  cast : Xdm.Atomic.atomic_type option;  (** trailing cast step *)
  last_attr : bool;
  self_singleton : bool;
      (** the value compared is the context node itself ([.]) — provably
          singleton (Section 3.10) *)
  origin : expr;
      (** an expression that re-derives this path's root (the external
          variable or collection call); used to synthesize an evaluable
          join operand for index nested-loop probes *)
  anchor : int;  (** id of the navigation anchor (binding / focus) *)
  anchor_depth : int;  (** [List.length steps] at the anchor point *)
  anchor_single : bool;
      (** the anchor denotes a single node per evaluation (a for-variable,
          a quantifier variable or a predicate focus — not a let-bound
          sequence, not a whole collection) *)
}

let anchor_counter = ref 0

let fresh_anchor () =
  incr anchor_counter;
  !anchor_counter

(** Re-anchor a path at its current end: used when a variable is bound to
    each item of the path ([for]/quantifier), or when a step predicate
    focuses on the step's node. *)
let reanchor ~single dp =
  {
    dp with
    anchor = fresh_anchor ();
    anchor_depth = List.length dp.steps;
    anchor_single = single;
  }

type binding = BDoc of dpath | BOpaque

type env = {
  vars : binding SMap.t;
  context : dpath option;  (** focus inside step predicates *)
  scalar_params : (string * Xdm.Atomic.atomic_type option) list;
      (** externally bound non-XML parameters and their SQL-derived types *)
  emptiness : bool;
      (** XMLExists mode: only the *emptiness* of the result matters, so a
          boolean-valued top-level expression (never empty!) cannot filter
          — the paper's Query 9 trap *)
}

let root_dpath ?origin collection =
  {
    collection;
    steps = [];
    gap = false;
    pending = P.PTrue;
    cast = None;
    last_attr = false;
    self_singleton = false;
    origin =
      (match origin with
      | Some e -> e
      | None ->
          ECall
            {
              prefix = "db2-fn";
              local = "xmlcolumn";
              args = [ ELit (Xdm.Atomic.Str collection) ];
            });
    anchor = fresh_anchor ();
    anchor_depth = 0;
    anchor_single = false;
  }

let conjoin a b = P.simplify (P.mk_and [ a; b ])

(** Does an expression reference the focus position? *)
let rec mentions_position = function
  | ECall { prefix = "" | "fn"; local = "position" | "last"; args } ->
      args = []
  | EArith (_, a, b) | EGCmp (_, a, b) | EVCmp (_, a, b) ->
      mentions_position a || mentions_position b
  | ENeg a -> mentions_position a
  | _ -> false

(** Is a predicate expression positional — one whose value is a number
    compared against the context position, or a position()-based test?
    Positional predicates never eliminate documents (every document that
    has a first match keeps it). *)
let is_positional = function
  | ELit (Xdm.Atomic.Integer _ | Xdm.Atomic.Double _ | Xdm.Atomic.Decimal _)
    ->
      true
  | EArith _ | ENeg _ -> true  (* numeric-valued: positional *)
  | e -> mentions_position e

(* ------------------------------------------------------------------ *)
(* Deriving paths                                                      *)
(* ------------------------------------------------------------------ *)

let rec extend_with_steps env (dp : dpath) (steps : step list) : dpath option
    =
  match steps with
  | [] -> Some dp
  | SAxis { axis = DescOrSelf; test = Kind KAnyNode; preds = [] } :: rest ->
      extend_with_steps env { dp with gap = true } rest
  | SAxis { axis; test; preds } :: rest -> (
      let mk ~attr ~extra_gap =
        let t = try Some (Pat.test_of_nodetest test) with _ -> None in
        match t with
        | None -> None
        | Some t ->
            let step =
              { Pat.gap = dp.gap || extra_gap; attr; tests = [ t ] }
            in
            let dp' =
              {
                dp with
                steps = dp.steps @ [ step ];
                gap = false;
                last_attr = attr;
                self_singleton = false;
                cast = None;
              }
            in
            (* analyze the step predicates with the step's node as focus;
               the focus is a fresh single-node anchor *)
            let focus = reanchor ~single:true { dp' with pending = P.PTrue } in
            let pending =
              List.fold_left
                (fun acc pred ->
                  if is_positional pred then acc
                  else
                    conjoin acc
                      (analyze_filtering { env with context = Some focus } pred))
                dp'.pending preds
            in
            Some { dp' with pending }
      in
      match axis with
      | Child -> Option.bind (mk ~attr:false ~extra_gap:false) (fun dp -> extend_with_steps env dp rest)
      | Attr -> Option.bind (mk ~attr:true ~extra_gap:false) (fun dp -> extend_with_steps env dp rest)
      | Descendant ->
          Option.bind (mk ~attr:false ~extra_gap:true) (fun dp ->
              extend_with_steps env dp rest)
      | Self | DescOrSelf | Parent | Ancestor | AncestorOrSelf
      | FollowingSibling | PrecedingSibling ->
          (* self/desc-or-self-with-test and reverse/sibling navigation:
             give up on this path (conservative — the structural join,
             not the path-value index, owns those axes) *)
          None)
  | SExpr { expr; preds } :: rest -> (
      (* transparent value steps: casts and data() *)
      let transparent =
        match expr with
        | ECast (EContext, t) -> Some (Some t)
        | ECall { prefix = "" | "fn"; local = "data"; args = [] | [ EContext ] }
          ->
            Some dp.cast
        | _ -> None
      in
      match transparent with
      | None -> None
      | Some cast ->
          let dp' = { dp with cast; self_singleton = true } in
          let pending =
            List.fold_left
              (fun acc pred ->
                if is_positional pred then acc
                else
                  conjoin acc
                    (analyze_filtering { env with context = Some dp' } pred))
              dp'.pending preds
          in
          if rest = [] then Some { dp' with pending } else None)

(** Interpret an expression as a derived collection path, if possible. *)
and as_dpath env (e : expr) : dpath option =
  match e with
  | EVar v -> (
      match SMap.find_opt v env.vars with
      | Some (BDoc dp) -> Some dp
      | _ -> None)
  | EContext -> env.context
  | ECall
      {
        prefix = "db2-fn";
        local = "xmlcolumn";
        args = [ ELit (Xdm.Atomic.Str name) ];
      }
  | ECall
      {
        prefix = "" | "fn";
        local = "collection";
        args = [ ELit (Xdm.Atomic.Str name) ];
      } ->
      Some (root_dpath name)
  | EPath (Relative, SExpr { expr = first; preds } :: rest) -> (
      match as_dpath env first with
      | None -> None
      | Some dp ->
          let pending =
            List.fold_left
              (fun acc pred ->
                if is_positional pred then acc
                else
                  conjoin acc
                    (analyze_filtering { env with context = Some dp } pred))
              dp.pending preds
          in
          extend_with_steps env { dp with pending } rest)
  | EPath (Relative, steps) -> (
      (* starts with an axis step: navigate from the focus *)
      match env.context with
      | None -> None
      | Some dp -> extend_with_steps env dp steps)
  | EPath ((Absolute | AbsDesc), _) ->
      (* leading '/': requires a document-rooted focus; only derivable when
         the focus is a collection document root. *)
      None
  | ECast (inner, t) -> (
      match as_dpath env inner with
      | Some dp -> Some { dp with cast = Some t; self_singleton = true }
      | None -> None)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Comparisons                                                         *)
(* ------------------------------------------------------------------ *)

and classify_side env (e : expr) :
    [ `Path of dpath
    | `Const of Xdm.Atomic.t
    | `Param of string * Xdm.Atomic.atomic_type option
    | `Typed of Xdm.Atomic.atomic_type
    | `Unknown ] =
  match e with
  | ELit a -> `Const a
  | ENeg (ELit a) -> (
      match a with
      | Xdm.Atomic.Integer i -> `Const (Xdm.Atomic.Integer (Int64.neg i))
      | Xdm.Atomic.Double f -> `Const (Xdm.Atomic.Double (-.f))
      | Xdm.Atomic.Decimal f -> `Const (Xdm.Atomic.Decimal (-.f))
      | _ -> `Unknown)
  | EVar v when SMap.mem v env.vars -> (
      match as_dpath env e with Some dp -> `Path dp | None -> `Unknown)
  | EVar v -> (
      match List.assoc_opt v env.scalar_params with
      | Some t -> `Param (v, t)
      | None -> `Unknown)
  | ECast ((ELit _ as lit), t) -> (
      match classify_side env lit with
      | `Const a -> (
          match Xdm.Atomic.cast_opt a t with
          | Some v -> `Const v
          | None -> `Typed t)
      | _ -> `Typed t)
  | ECast (EVar v, t) when not (SMap.mem v env.vars) -> `Param (v, Some t)
  | EContext -> ( match env.context with
      | Some dp -> `Path { dp with self_singleton = true }
      | None -> `Unknown)
  | _ -> (
      match as_dpath env e with
      | Some dp -> `Path dp
      | None -> (
          match e with
          | ECast (_, t) -> `Typed t
          | _ -> `Unknown))

(** Rebuild an evaluable absolute expression from a derived path:
    [origin / steps / cast]. [None] when a step cannot be expressed (e.g.
    merged self tests). *)
and expr_of_dpath (dp : dpath) : expr option =
  let nodetest_of_test : Pat.test -> nodetest option = function
    | Pat.TestName q -> Some (Name (TName q))
    | Pat.TestStar -> Some (Name TStar)
    | Pat.TestNsStar uri -> Some (Name (TNsStar { prefix = "ns"; uri }))
    | Pat.TestLocalStar l -> Some (Name (TLocalStar l))
    | Pat.TestKindAny -> Some (Kind KAnyNode)
    | Pat.TestKindText -> Some (Kind KText)
    | Pat.TestKindComment -> Some (Kind KComment)
    | Pat.TestKindPi t -> Some (Kind (KPi t))
  in
  let rec steps_of = function
    | [] -> Some []
    | (ps : Pat.pstep) :: rest -> (
        match ps.Pat.tests with
        | [ t ] -> (
            match (nodetest_of_test t, steps_of rest) with
            | Some test, Some more ->
                let axis = if ps.Pat.attr then Attr else Child in
                let gap_steps =
                  if ps.Pat.gap then
                    [ SAxis { axis = DescOrSelf; test = Kind KAnyNode; preds = [] } ]
                  else []
                in
                Some (gap_steps @ (SAxis { axis; test; preds = [] } :: more))
            | _ -> None)
        | _ -> None)
  in
  match steps_of dp.steps with
  | None -> None
  | Some steps ->
      let steps =
        match dp.cast with
        | Some t -> steps @ [ SExpr { expr = ECast (EContext, t); preds = [] } ]
        | None -> steps
      in
      Some (EPath (Relative, SExpr { expr = dp.origin; preds = [] } :: steps))

and leaf_of env ~value_cmp (dp : dpath) (op : P.cmp_op) (operand : P.operand)
    ~source : P.t =
  ignore env;
  if dp.steps = [] then P.PTrue
  else
    let beyond = List.length dp.steps - dp.anchor_depth in
    let singleton =
      dp.anchor_single
      && ((beyond = 0 && dp.self_singleton) || (beyond = 1 && dp.last_attr))
    in
    conjoin dp.pending
      (P.PLeaf
         {
           collection = dp.collection;
           path = Pat.of_steps dp.steps;
           op;
           operand;
           path_cast = dp.cast;
           value_cmp;
           anchor = dp.anchor;
           singleton_path = singleton;
           source;
         })

and analyze_comparison env ~value_cmp op (a : expr) (b : expr) : P.t =
  let source =
    Printf.sprintf "%s %s %s" (expr_to_string a) (P.cmp_op_to_string op)
      (expr_to_string b)
  in
  let sa = classify_side env a and sb = classify_side env b in
  match (sa, sb) with
  | `Path dp, `Const c -> leaf_of env ~value_cmp dp op (P.OConst c) ~source
  | `Const c, `Path dp ->
      leaf_of env ~value_cmp dp (P.flip op) (P.OConst c) ~source
  | `Path dp, `Param (v, t) ->
      leaf_of env ~value_cmp dp op (P.OParam (v, t)) ~source
  | `Param (v, t), `Path dp ->
      leaf_of env ~value_cmp dp (P.flip op) (P.OParam (v, t)) ~source
  | `Path dp, `Typed t ->
      leaf_of env ~value_cmp dp op (P.OJoin { jexpr = b; jcast = Some t }) ~source
  | `Typed t, `Path dp ->
      leaf_of env ~value_cmp dp (P.flip op)
        (P.OJoin { jexpr = a; jcast = Some t })
        ~source
  | `Path dp1, `Path dp2 ->
      (* a join between two collections: each side is a necessary
         condition; the comparison type is whatever a cast proves (Tip 1).
         The join operand is re-rooted at its origin so the planner can
         evaluate it for index nested-loop probing. *)
      let jexpr_of dp fallback =
        Option.value (expr_of_dpath dp) ~default:fallback
      in
      conjoin
        (leaf_of env ~value_cmp dp1 op
           (P.OJoin { jexpr = jexpr_of dp2 b; jcast = dp2.cast })
           ~source)
        (leaf_of env ~value_cmp dp2 (P.flip op)
           (P.OJoin { jexpr = jexpr_of dp1 a; jcast = dp1.cast })
           ~source)
  | `Path dp, `Unknown ->
      leaf_of env ~value_cmp dp op (P.OJoin { jexpr = b; jcast = None }) ~source
  | `Unknown, `Path dp ->
      leaf_of env ~value_cmp dp (P.flip op)
        (P.OJoin { jexpr = a; jcast = None })
        ~source
  | _ -> P.PTrue

(* ------------------------------------------------------------------ *)
(* Filtering positions                                                 *)
(* ------------------------------------------------------------------ *)

(** Analyze an expression whose *emptiness / falsity* eliminates the
    current document (where clauses, predicates, XMLExists). *)
and analyze_filtering env (e : expr) : P.t =
  match e with
  | EAnd (a, b) ->
      P.simplify (P.mk_and [ analyze_filtering env a; analyze_filtering env b ])
  | EOr (a, b) ->
      P.simplify (P.mk_or [ analyze_filtering env a; analyze_filtering env b ])
  | EGCmp (op, a, b) ->
      let op' =
        match op with
        | GEq -> P.CEq
        | GNe -> P.CNe
        | GLt -> P.CLt
        | GLe -> P.CLe
        | GGt -> P.CGt
        | GGe -> P.CGe
      in
      analyze_comparison env ~value_cmp:false op' a b
  | EVCmp (op, a, b) ->
      let op' =
        match op with
        | VEq -> P.CEq
        | VNe -> P.CNe
        | VLt -> P.CLt
        | VLe -> P.CLe
        | VGt -> P.CGt
        | VGe -> P.CGe
      in
      analyze_comparison env ~value_cmp:true op' a b
  | EQuant (QSome, binds, sat) ->
      let env', contribs =
        List.fold_left
          (fun (env, acc) (v, be) ->
            match as_dpath env be with
            | Some dp ->
                ( {
                    env with
                    vars =
                      SMap.add v
                        (BDoc (reanchor ~single:true { dp with pending = P.PTrue }))
                        env.vars;
                  },
                  dp.pending :: acc )
            | None ->
                ( { env with vars = SMap.add v BOpaque env.vars },
                  analyze_result env be :: acc ))
          (env, []) binds
      in
      P.simplify (P.mk_and (analyze_filtering env' sat :: contribs))
  | EQuant (QEvery, _, _) -> P.PTrue
  | EPath _ | EVar _ -> (
      match as_dpath env e with
      | Some dp when dp.steps <> [] ->
          conjoin dp.pending
            (P.PStructural
               {
                 s_collection = dp.collection;
                 s_path = Pat.of_steps dp.steps;
                 s_source = expr_to_string e;
               })
      | Some dp -> dp.pending
      | None -> analyze_result env e)
  | ECall { prefix = "" | "fn"; local = "exists" | "boolean"; args = [ a ] }
    ->
      analyze_filtering env a
  | ECall { prefix = "xqdb"; local = "between"; args = [ vs; lo; hi ] } -> (
      (* the explicit between of the paper's Section 4: existential over a
         closed range — always answerable by ONE merged range scan *)
      match
        (as_dpath env vs, classify_side env lo, classify_side env hi)
      with
      | Some dp, `Const clo, `Const chi when dp.steps <> [] ->
          let dp = reanchor ~single:true dp in
          let dp = { dp with self_singleton = true } in
          let source = Printf.sprintf "xqdb:between(%s)" (expr_to_string vs) in
          P.simplify
            (P.mk_and
               [
                 leaf_of env ~value_cmp:false dp P.CGe (P.OConst clo) ~source;
                 leaf_of env ~value_cmp:false dp P.CLe (P.OConst chi) ~source;
               ])
      | _ -> P.PTrue)
  | ECall { prefix = "" | "fn"; local = "zero-or-one" | "one-or-more" | "exactly-one"; args = [ a ] }
    ->
      analyze_filtering env a
  | EFlwor _ -> analyze_result env e
  | ESeq es -> P.simplify (P.mk_or (List.map (analyze_filtering env) es))
  | EIf (_, t, f) ->
      P.simplify (P.mk_or [ analyze_filtering env t; analyze_filtering env f ])
  | _ -> P.PTrue

(* ------------------------------------------------------------------ *)
(* Result positions                                                    *)
(* ------------------------------------------------------------------ *)

(** Analyze an expression whose *result* is delivered (query body, return
    clause, for-binding): documents for which it evaluates to the empty
    sequence contribute nothing, so emptiness-preserving sub-expressions
    filter. *)
and analyze_result env (e : expr) : P.t =
  match e with
  | EPath _ | EVar _ | EContext -> (
      match as_dpath env e with
      | Some dp when dp.steps <> [] ->
          conjoin dp.pending
            (P.PStructural
               {
                 s_collection = dp.collection;
                 s_path = Pat.of_steps dp.steps;
                 s_source = expr_to_string e;
               })
      | Some dp -> dp.pending
      | None -> P.PTrue)
  | ESeq es -> P.simplify (P.mk_or (List.map (analyze_result env) es))
  | EElem _ -> P.PTrue
  | EFlwor (clauses, ret) ->
      let env, contribs =
        List.fold_left
          (fun (env, acc) clause ->
            match clause with
            | CFor binds ->
                List.fold_left
                  (fun (env, acc) (v, be) ->
                    match as_dpath env be with
                    | Some dp ->
                        let contrib =
                          if dp.steps = [] then dp.pending
                          else
                            conjoin dp.pending
                              (P.PStructural
                                 {
                                   s_collection = dp.collection;
                                   s_path = Pat.of_steps dp.steps;
                                   s_source = expr_to_string be;
                                 })
                        in
                        ( {
                            env with
                            vars =
                              SMap.add v
                                (BDoc
                                   (reanchor ~single:true
                                      { dp with pending = P.PTrue }))
                                env.vars;
                          },
                          contrib :: acc )
                    | None ->
                        ( { env with vars = SMap.add v BOpaque env.vars },
                          analyze_result env be :: acc ))
                  (env, acc) binds
            | CLet binds ->
                (* let preserves empty sequences: extend the environment,
                   contribute nothing (Section 3.4); the bound value is a
                   sequence, so it is never a singleton anchor *)
                List.fold_left
                  (fun (env, acc) (v, be) ->
                    match as_dpath env be with
                    | Some dp ->
                        ( {
                            env with
                            vars =
                              SMap.add v
                                (BDoc { dp with anchor_single = false })
                                env.vars;
                          },
                          acc )
                    | None ->
                        ( { env with vars = SMap.add v BOpaque env.vars },
                          acc ))
                  (env, acc) binds
            | CWhere e -> (env, analyze_filtering env e :: acc)
            | COrder _ -> (env, acc))
          (env, []) clauses
      in
      P.simplify (P.mk_and (analyze_result env ret :: List.rev contribs))
  | EQuant _ | EGCmp _ | EVCmp _ | EAnd _ | EOr _ | ECall _ ->
      analyze_filtering_or_true env e
  | EIf (_, t, f) ->
      P.simplify (P.mk_or [ analyze_result env t; analyze_result env f ])
  | _ -> P.PTrue

(** Comparisons and calls in result position deliver their boolean result.
    In value mode, restricting the collection must not flip an existential
    from true to false — general comparisons are existential, so filtering
    is sound; aggregates (count/sum/...) are not. In emptiness mode
    (XMLExists), a boolean result is never the empty sequence, so nothing
    boolean-valued can filter (Query 9). *)
and analyze_filtering_or_true env (e : expr) : P.t =
  if env.emptiness then P.PTrue
  else
    match e with
    | ECall { prefix = "" | "fn"; local = "exists" | "boolean"; _ }
    | EGCmp _ | EVCmp _ | EAnd _ | EOr _ | EQuant _ ->
        analyze_filtering env e
    | _ -> P.PTrue

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

(** Analyze a statically resolved query.

    [xml_params]: external variables bound to XML column documents
    (SQL/XML [PASSING col AS "v"]) — (variable, "TABLE.COLUMN").
    [scalar_params]: external non-XML variables with their SQL-derived XML
    schema types. *)
let analyze ?(xml_params : (string * string) list = [])
    ?(scalar_params : (string * Xdm.Atomic.atomic_type option) list = [])
    ?(mode : [ `Value | `Exists ] = `Value) (q : query) : P.t =
  let env =
    {
      vars =
        List.fold_left
          (fun m (v, coll) ->
            SMap.add v (BDoc (root_dpath ~origin:(EVar v) coll)) m)
          SMap.empty xml_params;
      context = None;
      scalar_params;
      emptiness = mode = `Exists;
    }
  in
  P.simplify (analyze_result env q.body)

(* ------------------------------------------------------------------ *)
(* Structural-axis survey                                              *)
(* ------------------------------------------------------------------ *)

(** Visit every expression and step of a query (pre-order, source
    order); the shared chassis of the structural surveys below. *)
let survey ~(on_expr : expr -> unit) ~(on_step : step -> unit) (q : query) :
    unit =
  let rec go (e : expr) =
    on_expr e;
    match e with
    | ELit _ | EVar _ | EContext -> ()
    | ESeq es -> List.iter go es
    | EPath (_, steps) -> List.iter go_step steps
    | EFlwor (clauses, ret) ->
        List.iter
          (function
            | CFor binds | CLet binds -> List.iter (fun (_, e) -> go e) binds
            | CWhere e -> go e
            | COrder keys -> List.iter (fun (e, _) -> go e) keys)
          clauses;
        go ret
    | EQuant (_, binds, sat) ->
        List.iter (fun (_, e) -> go e) binds;
        go sat
    | EIf (c, t, f) ->
        go c;
        go t;
        go f
    | EAnd (a, b)
    | EOr (a, b)
    | EGCmp (_, a, b)
    | EVCmp (_, a, b)
    | ENCmp (_, a, b)
    | EArith (_, a, b)
    | ERange (a, b)
    | EUnion (a, b)
    | EIntersect (a, b)
    | EExcept (a, b) ->
        go a;
        go b
    | ENeg a | ECast (a, _) | ECastable (a, _) | EInstanceOf (a, _) -> go a
    | ECall { args; _ } -> List.iter go args
    | EElem c ->
        List.iter
          (fun (_, pieces) ->
            List.iter (function APExpr e -> go e | APText _ -> ()) pieces)
          c.cattrs;
        List.iter (function CPExpr e -> go e | CPText _ -> ()) c.ccontent
    | EElemComp { cn_expr; cbody; _ } ->
        Option.iter go cn_expr;
        go cbody
    | EAttrComp { an_expr; abody; _ } ->
        Option.iter go an_expr;
        go abody
    | ETextComp e -> go e
  and go_step s =
    on_step s;
    match s with
    | SAxis { preds; _ } -> List.iter go preds
    | SExpr { expr; preds } ->
        go expr;
        List.iter go preds
  in
  go q.body

(** The reverse and sibling axes used anywhere in a query, in first-use
    order — the steps only the structural join can accelerate
    (tree-walked otherwise). Feeds the planner's [nav-axis] EXPLAIN
    notes. *)
let reverse_axes (q : query) : Xquery.Ast.axis list =
  let seen = ref [] in
  let add a = if not (List.mem a !seen) then seen := a :: !seen in
  survey q
    ~on_expr:(fun _ -> ())
    ~on_step:(function
      | SAxis { axis; _ } ->
          if Xquery.Ast.is_reverse_or_sibling axis then add axis
      | SExpr _ -> ());
  List.rev !seen

(** The stored collections ("TABLE.COLUMN") a query reads through
    [db2-fn:xmlcolumn]/[fn:collection] literals, in first-use order. *)
let collections (q : query) : string list =
  let seen = ref [] in
  let add c = if not (List.mem c !seen) then seen := c :: !seen in
  survey q
    ~on_step:(fun _ -> ())
    ~on_expr:(function
      | ECall
          {
            prefix = "db2-fn" | "" | "fn";
            local = "xmlcolumn" | "collection";
            args = [ ELit (Xdm.Atomic.Str c) ];
          } ->
          add c
      | _ -> ());
  List.rev !seen
