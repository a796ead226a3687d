(** The XQuery dynamic evaluator.

    Semantics choices that matter to the paper:

    - every path step sorts its node results into document order and
      removes duplicate *identities*;
    - a leading [/] is [fn:root(.) treat as document-node()]: a type error
      when the context tree is rooted at a constructed element (Query 25);
    - a path step from an element node navigates its *children* — there is
      no extra document-node level (Query 24 returns empty);
    - FLWOR [let] binds whole sequences (outer-join shape, Section 3.4),
      [for] iterates and therefore discards empty sequences;
    - general comparisons are existential; value comparisons demand
      singletons. *)

open Xdm
open Ast

(* Operator labels for the profiler's EXPLAIN-ANALYZE tree. Only the
   plan-shaped expressions get a span of their own; everything else is
   still counted in [eval_steps] but does not clutter the tree. *)
let op_label : expr -> string option = function
  | EPath _ -> Some "PATH"
  | EFlwor _ -> Some "FLWOR"
  | EQuant _ -> Some "QUANT"
  | ECall { prefix; local; _ } ->
      Some (if prefix = "" then "FN " ^ local else "FN " ^ prefix ^ ":" ^ local)
  | EElem _ | EElemComp _ | EAttrComp _ | ETextComp _ -> Some "CONSTRUCT"
  | _ -> None

(* [eval] is the governed/profiled wrapper around the real dispatch
   [eval_inner]: it charges the resource meter one step (and one recursion
   level) per expression evaluated, and mirrors the step into the
   execution profile (plus an operator span for plan-shaped expressions).
   With no limits set and profiling off, the whole wrapper is one branch,
   so ordinary queries pay nothing measurable. The depth counter must
   survive expressions that catch exceptions part-way, hence the
   exception-safe [leave]. *)
let rec eval (ctx : Ctx.t) (e : expr) : Item.seq =
  Faultinject.hit "eval.step";
  let m = ctx.Ctx.meter in
  let p = ctx.Ctx.prof in
  if not (m.Limits.armed || p.Xprof.on) then eval_inner ctx e
  else begin
    if m.Limits.armed then begin
      Limits.step m;
      Limits.enter m
    end;
    Xprof.step p;
    let dispatch () =
      match if p.Xprof.on then op_label e else None with
      | None -> eval_inner ctx e
      | Some name ->
          Xprof.spanned ~rows:List.length p name (fun () -> eval_inner ctx e)
    in
    match dispatch () with
    | r ->
        if m.Limits.armed then Limits.leave m;
        r
    | exception ex ->
        if m.Limits.armed then Limits.leave m;
        raise ex
  end

and eval_inner (ctx : Ctx.t) (e : expr) : Item.seq =
  match e with
  | ELit a -> [ Item.A a ]
  | EVar v -> Ctx.lookup ctx v
  | EContext -> [ Ctx.context_item ctx ]
  | ESeq es -> List.concat_map (eval ctx) es
  | EPath (start, steps) -> eval_path ctx start steps
  | EFlwor (clauses, ret) -> eval_flwor ctx clauses ret
  | EQuant (q, binds, sat) -> eval_quant ctx q binds sat
  | EIf (c, t, f) -> if Item.ebv (eval ctx c) then eval ctx t else eval ctx f
  | EAnd (a, b) ->
      [
        Item.A
          (Atomic.Boolean (Item.ebv (eval ctx a) && Item.ebv (eval ctx b)));
      ]
  | EOr (a, b) ->
      [
        Item.A
          (Atomic.Boolean (Item.ebv (eval ctx a) || Item.ebv (eval ctx b)));
      ]
  | EGCmp (op, a, b) ->
      let xs = Item.atomize (eval ctx a) and ys = Item.atomize (eval ctx b) in
      [ Item.A (Atomic.Boolean (Compare.general (Compare.op_of_gcmp op) xs ys)) ]
  | EVCmp (op, a, b) -> (
      let xs = Item.atomize (eval ctx a) and ys = Item.atomize (eval ctx b) in
      match Compare.value (Compare.op_of_vcmp op) xs ys with
      | None -> []
      | Some r -> [ Item.A (Atomic.Boolean r) ])
  | ENCmp (op, a, b) -> (
      let node side s =
        match s with
        | [] -> None
        | [ Item.N n ] -> Some n
        | _ ->
            Xerror.type_error "node comparison requires a single node (%s)"
              side
      in
      match (node "left" (eval ctx a), node "right" (eval ctx b)) with
      | None, _ | _, None -> []
      | Some x, Some y ->
          let r =
            match op with
            | NIs -> Node.identical x y
            | NPrecedes -> Node.doc_compare x y < 0
            | NFollows -> Node.doc_compare x y > 0
          in
          [ Item.A (Atomic.Boolean r) ])
  | EArith (op, a, b) -> (
      let single s =
        match Item.atomize (eval ctx s) with
        | [] -> None
        | [ v ] -> Some v
        | _ -> Xerror.type_error "arithmetic on a non-singleton sequence"
      in
      match (single a, single b) with
      | None, _ | _, None -> []
      | Some x, Some y -> [ Item.A (Compare.arith op x y) ])
  | ENeg a -> (
      match Item.atomize (eval ctx a) with
      | [] -> []
      | [ v ] -> [ Item.A (Compare.negate v) ]
      | _ -> Xerror.type_error "unary minus on a non-singleton sequence")
  | ERange (a, b) -> (
      let int_of s =
        match Item.atomize (eval ctx s) with
        | [] -> None
        | [ v ] -> (
            match Atomic.cast_opt v Atomic.TInteger with
            | Some (Atomic.Integer i) -> Some i
            | _ -> Xerror.type_error "range bounds must be integers")
        | _ -> Xerror.type_error "range bounds must be singletons"
      in
      match (int_of a, int_of b) with
      | Some lo, Some hi when lo <= hi ->
          let rec build i acc =
            if i < lo then acc
            else build (Int64.sub i 1L) (Item.A (Atomic.Integer i) :: acc)
          in
          build hi []
      | _ -> [])
  | EUnion (a, b) ->
      let xs = node_seq "union" (eval ctx a)
      and ys = node_seq "union" (eval ctx b) in
      List.map Item.of_node (Item.doc_order_dedup (xs @ ys))
  | EIntersect (a, b) ->
      let xs = node_seq "intersect" (eval ctx a)
      and ys = node_seq "intersect" (eval ctx b) in
      let ids = List.map (fun (n : Node.t) -> n.Node.id) ys in
      List.map Item.of_node
        (Item.doc_order_dedup
           (List.filter (fun (n : Node.t) -> List.mem n.Node.id ids) xs))
  | EExcept (a, b) ->
      let xs = node_seq "except" (eval ctx a)
      and ys = node_seq "except" (eval ctx b) in
      let ids = List.map (fun (n : Node.t) -> n.Node.id) ys in
      List.map Item.of_node
        (Item.doc_order_dedup
           (List.filter (fun (n : Node.t) -> not (List.mem n.Node.id ids)) xs))
  | ECall { prefix; local; args } ->
      let args = List.map (eval ctx) args in
      Functions.call ctx ~prefix ~local args
  | ECast (a, t) -> (
      match Item.atomize (eval ctx a) with
      | [] -> []
      | [ v ] -> [ Item.A (Atomic.cast v t) ]
      | _ -> Xerror.type_error "cast of a sequence of more than one item")
  | ECastable (a, t) -> (
      match Item.atomize (eval ctx a) with
      | [] -> [ Item.A (Atomic.Boolean true) ]
      | [ v ] -> [ Item.A (Atomic.Boolean (Option.is_some (Atomic.cast_opt v t))) ]
      | _ -> [ Item.A (Atomic.Boolean false) ])
  | EInstanceOf (a, st) ->
      let seq = eval ctx a in
      let matches_item (it : Item.t) (ty : item_type) =
        match (it, ty) with
        | _, ITItem -> true
        | Item.A a, ITAtomic t -> Atomic.type_of a = t
        | Item.N _, ITAtomic _ | Item.A _, _ -> false
        | Item.N n, ITAnyNode -> ignore n; true
        | Item.N n, ITElement -> n.Node.kind = Node.Element
        | Item.N n, ITAttribute -> n.Node.kind = Node.Attribute
        | Item.N n, ITText -> n.Node.kind = Node.Text
        | Item.N n, ITDocument -> n.Node.kind = Node.Document
      in
      let ok =
        match st with
        | STEmpty -> seq = []
        | STItems (ty, occ) -> (
            List.for_all (fun it -> matches_item it ty) seq
            &&
            match occ with
            | OccOne -> List.length seq = 1
            | OccOpt -> List.length seq <= 1
            | OccStar -> true
            | OccPlus -> seq <> [])
      in
      [ Item.A (Atomic.Boolean ok) ]
  | EElem c -> [ Item.N (eval_ctor ctx c) ]
  | EElemComp { cn_static; cn_expr; cbody } ->
      let name = computed_name ctx "element" cn_static cn_expr in
      let content = [ Construct.PSeq (eval ctx cbody) ] in
      let n =
        Construct.element ~preserve:ctx.Ctx.construction_preserve name
          ~attrs:[] ~content
      in
      charge_construction ctx n;
      [ Item.N n ]
  | EAttrComp { an_static; an_expr; abody } ->
      let name = computed_name ctx "attribute" an_static an_expr in
      let value =
        String.concat " "
          (List.map Atomic.string_value (Item.atomize (eval ctx abody)))
      in
      let n = Node.attribute name value in
      charge_construction ctx n;
      [ Item.N n ]
  | ETextComp e ->
      let s =
        String.concat " "
          (List.map Atomic.string_value (Item.atomize (eval ctx e)))
      in
      let n = Node.text s in
      charge_construction ctx n;
      [ Item.N n ]

and computed_name ctx what static_name name_expr : Qname.t =
  match (static_name, name_expr) with
  | Some q, _ -> q
  | None, Some e -> (
      match Item.atomize (eval ctx e) with
      | [ a ] -> Qname.make (Atomic.string_value a)
      | _ ->
          Xerror.type_error "computed %s name must be a single atomic value"
            what)
  | None, None -> assert false

and node_seq what (s : Item.seq) : Node.t list =
  match Item.nodes_of_seq s with
  | Some nodes -> nodes
  | None -> Xerror.type_error "operand of %s is not a sequence of nodes" what

(* ---------------------------- paths ------------------------------ *)

and eval_path ctx start steps : Item.seq =
  let initial : Item.seq =
    match start with
    | Absolute | AbsDesc ->
        (* fn:root(.) treat as document-node() *)
        let n = Ctx.context_node ctx in
        let r = Node.root n in
        if r.Node.kind <> Node.Document then
          Xerror.type_error
            "leading '/' requires a tree rooted at a document node (root is \
             a %s node)"
            (Node.kind_to_string r.Node.kind)
        else [ Item.N r ]
    | Relative -> (
        (* the first step provides the start; give it the outer focus *)
        match ctx.Ctx.item with
        | Some it -> [ it ]
        | None -> (
            (* Allow paths that start with a primary not using the focus
               (e.g. db2-fn:xmlcolumn(...)/order) in a focus-free context. *)
            match steps with
            | SExpr _ :: _ -> [ Item.A (Atomic.Boolean true) ]
              (* dummy focus; SExpr ignores it unless it uses '.' *)
            | _ -> Xerror.no_context "path step with no context item"))
  in
  eval_steps ctx initial steps

(** Evaluate the remaining steps of a path from an already-computed
    current sequence. Exposed (via [eval_lazy]) so streaming execution can
    run the tail of a path per document. *)
and eval_steps ctx (current : Item.seq) (steps : step list) : Item.seq =
  match steps with
  | [] -> current
  | step :: rest ->
      let out = eval_step ctx current step in
      let out =
        if rest = [] then
          (* last step: nodes get sorted/deduped; atomics pass through *)
          match Item.nodes_of_seq out with
          | Some nodes -> List.map Item.of_node (Item.doc_order_dedup nodes)
          | None ->
              if List.exists Item.is_node out then
                Xerror.mixed_path
                  "path step mixes nodes and atomic values"
              else out
        else
          match Item.nodes_of_seq out with
          | Some nodes -> List.map Item.of_node (Item.doc_order_dedup nodes)
          | None ->
              Xerror.mixed_path
                "intermediate path step produced non-node items"
      in
      eval_steps ctx out rest

and eval_step ctx (current : Item.seq) (step : step) : Item.seq =
  let size = List.length current in
  match step with
  | SAxis { axis; test; preds } ->
      List.concat
        (List.mapi
           (fun i it ->
             let n =
               match it with
               | Item.N n -> n
               | Item.A _ ->
                   Xerror.type_error
                     "axis step applied to an atomic value"
             in
             ignore i;
             ignore size;
             let candidates = axis_nodes axis n in
             let matched = List.filter (node_test_matches axis test) candidates in
             apply_predicates ctx (List.map Item.of_node matched) preds)
           current)
  | SExpr { expr; preds } ->
      List.concat
        (List.mapi
           (fun i it ->
             let inner = Ctx.with_focus ctx it (i + 1) size in
             let out = eval inner expr in
             apply_predicates ctx out preds)
           current)

and axis_nodes axis (n : Node.t) : Node.t list =
  match axis with
  | Child -> n.Node.children
  | Attr -> n.Node.attrs
  | Self -> [ n ]
  | Parent -> ( match n.Node.parent with Some p -> [ p ] | None -> [])
  | Descendant -> Node.descendants n
  | DescOrSelf -> Node.descendants_or_self n
  (* reverse axes present candidates nearest-first (reverse document
     order), the spec's ordering for positional predicates; the final
     per-step sort restores document order either way *)
  | Ancestor -> List.rev (Node.ancestors n)
  | AncestorOrSelf -> n :: List.rev (Node.ancestors n)
  | FollowingSibling -> snd (sibling_split n)
  | PrecedingSibling -> List.rev (fst (sibling_split n))

(** The context node's siblings, split into (before, after) in document
    order. Attributes are not children of their element, so they have no
    siblings — and never appear as siblings of child nodes. *)
and sibling_split (n : Node.t) : Node.t list * Node.t list =
  if n.Node.kind = Node.Attribute then ([], [])
  else
    match n.Node.parent with
    | None -> ([], [])
    | Some p ->
        let rec split before = function
          | [] -> (List.rev before, [])
          | c :: rest ->
              if c == n then (List.rev before, rest)
              else split (c :: before) rest
        in
        split [] p.Node.children

and node_test_matches axis test (n : Node.t) : bool =
  match test with
  | Kind KAnyNode -> true
  | Kind KText -> n.Node.kind = Node.Text
  | Kind KComment -> n.Node.kind = Node.Comment
  | Kind KDocument -> n.Node.kind = Node.Document
  | Kind (KPi None) -> n.Node.kind = Node.Pi
  | Kind (KPi (Some t)) ->
      n.Node.kind = Node.Pi
      && (match n.Node.name with Some q -> q.Qname.local = t | None -> false)
  | Name nt -> (
      (* name tests select the principal node kind of the axis *)
      let principal_ok =
        match axis with
        | Attr -> n.Node.kind = Node.Attribute
        | _ -> n.Node.kind = Node.Element
      in
      principal_ok
      &&
      match (nt, n.Node.name) with
      | TStar, _ -> true
      | TName q, Some nq -> Qname.equal q nq
      | TNsStar { uri; _ }, Some nq -> String.equal nq.Qname.uri uri
      | TLocalStar l, Some nq -> String.equal nq.Qname.local l
      | _, None -> false)

and apply_predicates ctx (items : Item.seq) (preds : expr list) : Item.seq =
  List.fold_left
    (fun items pred ->
      let size = List.length items in
      List.filteri
        (fun i it ->
          let inner = Ctx.with_focus ctx it (i + 1) size in
          let r = eval inner pred in
          match r with
          | [ Item.A (Atomic.Integer k) ] -> Int64.to_int k = i + 1
          | [ Item.A (Atomic.Double f) ] -> f = float_of_int (i + 1)
          | [ Item.A (Atomic.Decimal f) ] -> f = float_of_int (i + 1)
          | r -> Item.ebv r)
        items)
    items preds

(* ---------------------------- FLWOR ------------------------------ *)

and eval_flwor ctx clauses ret : Item.seq =
  (* a tuple is a variable environment *)
  let tuples = ref [ ctx ] in
  List.iter
    (fun clause ->
      match clause with
      | CFor binds ->
          List.iter
            (fun (v, e) ->
              tuples :=
                List.concat_map
                  (fun tctx ->
                    List.map
                      (fun item -> Ctx.bind tctx v [ item ])
                      (eval tctx e))
                  !tuples)
            binds
      | CLet binds ->
          List.iter
            (fun (v, e) ->
              tuples := List.map (fun tctx -> Ctx.bind tctx v (eval tctx e)) !tuples)
            binds
      | CWhere e ->
          tuples := List.filter (fun tctx -> Item.ebv (eval tctx e)) !tuples
      | COrder keys ->
          let keyed =
            List.map
              (fun tctx ->
                let ks =
                  List.map
                    (fun (e, dir) ->
                      let k =
                        match Item.atomize (eval tctx e) with
                        | [] -> None
                        | [ v ] -> Some v
                        | _ ->
                            Xerror.type_error
                              "order by key is not a singleton"
                      in
                      (k, dir))
                    keys
                in
                (ks, tctx))
              !tuples
          in
          let cmp (ka, _) (kb, _) =
            let rec go = function
              | [] -> 0
              | ((a, dir), (b, _)) :: rest -> (
                  let c = Compare.order_key_compare a b in
                  let c = match dir with `Asc -> c | `Desc -> -c in
                  match c with 0 -> go rest | c -> c)
            in
            go (List.combine ka kb)
          in
          tuples := List.map snd (List.stable_sort cmp keyed))
    clauses;
  List.concat_map (fun tctx -> eval tctx ret) !tuples

and eval_quant ctx q binds sat : Item.seq =
  let rec go ctx = function
    | [] -> Item.ebv (eval ctx sat)
    | (v, e) :: rest ->
        let items = eval ctx e in
        let test item = go (Ctx.bind ctx v [ item ]) rest in
        if q = QSome then List.exists test items else List.for_all test items
  in
  [ Item.A (Atomic.Boolean (go ctx binds)) ]

(* ------------------------- constructors -------------------------- *)

and eval_ctor ctx (c : ctor) : Node.t =
  let attrs =
    List.map
      (fun (q, pieces) ->
        let buf = Buffer.create 16 in
        List.iter
          (function
            | APText s -> Buffer.add_string buf s
            | APExpr e ->
                let atoms = Item.atomize (eval ctx e) in
                Buffer.add_string buf
                  (String.concat " " (List.map Atomic.string_value atoms)))
          pieces;
        (q, Buffer.contents buf))
      c.cattrs
  in
  let content =
    List.map
      (function
        | CPText s -> Construct.PText s
        | CPExpr e -> Construct.PSeq (eval ctx e))
      c.ccontent
  in
  let n =
    Construct.element ~preserve:ctx.Ctx.construction_preserve c.cname ~attrs
      ~content
  in
  charge_construction ctx n;
  n

(** Charge a freshly constructed tree against the governor's node budget
    and the profile's [nodes_materialized]. One branch when both off. *)
and charge_construction ctx (n : Node.t) =
  let m = ctx.Ctx.meter and p = ctx.Ctx.prof in
  if m.Limits.armed || p.Xprof.on then begin
    let count =
      match n.Node.kind with
      | Node.Element | Node.Document -> List.length (Node.descendants_or_self n)
      | _ -> 1
    in
    if m.Limits.armed then Limits.add_nodes m count;
    Xprof.add_nodes p count
  end

(* ------------------------- entry points -------------------------- *)

(** Evaluate a parsed query: resolve statics, then evaluate with the given
    collection resolver, external variable bindings and resource limits. *)
let run ?(resolver : (string -> Item.seq) option)
    ?(vars : (string * Item.seq) list = []) ?(limits = Limits.unlimited)
    ?prof (q : query) : Item.seq =
  let q = Static.resolve ~external_vars:(List.map fst vars) q in
  let ctx =
    Ctx.init ?resolver
      ~construction_preserve:q.prolog.construction_preserve
      ~meter:(Limits.meter ~limits ()) ?prof ()
  in
  let ctx = Ctx.bind_all ctx vars in
  eval ctx q.body

(** Parse and evaluate a query string. *)
let run_string ?resolver ?vars ?limits ?prof (src : string) : Item.seq =
  run ?resolver ?vars ?limits ?prof (Parser.parse_query src)

(* ------------------------ lazy production ------------------------- *)

(* One pipeline for the streaming and the chunked consumer. An
   expression that decomposes becomes a list of independent units, each
   producing its slice of the result; the slices, concatenated in unit
   order, are exactly the strict result. Two shapes decompose:

   - a path whose first step is a primary expression (the
     [db2-fn:xmlcolumn(...)/...] shape) and whose other steps are all
     axis steps. The first step's output is sorted/deduped strictly; an
     axis step never leaves a node's tree, and document order across
     trees follows root order, so one unit per tree (its nodes of the
     first step's output) emits each tree's results contiguously and in
     order;
   - a FLWOR whose clauses contain no [order by]: tuple production is
     depth-first per binding item, which matches the strict clause-wise
     expansion order. One unit per item of the first [for] source.

   The unit source (first-step output / the [for] source) is evaluated
   strictly, in the consumer's domain, so any tree sorting or renumbering
   it triggers happens before chunks run. Everything else falls back to
   strict evaluation, delayed until the first pull so an unconsumed
   cursor costs nothing. *)

let has_order (clauses : clause list) =
  List.exists (function COrder _ -> true | _ -> false) clauses

(** Consecutive runs of nodes sharing a root (the input is in document
    order, so each tree's nodes are contiguous). *)
let group_by_tree (nodes : Node.t list) : Node.t list list =
  let rec go acc cur = function
    | [] -> List.rev (List.rev cur :: acc)
    | n :: rest -> (
        match cur with
        | m :: _ when (Node.root m).Node.id <> (Node.root n).Node.id ->
            go (List.rev cur :: acc) [ n ] rest
        | _ -> go acc (n :: cur) rest)
  in
  match nodes with [] -> [] | _ -> go [] [] nodes

(** Evaluate to a lazily produced sequence. With [parallelism > 1] the
    units run in contiguous chunks through {!Ctx.chunked} (forced at the
    first pull); otherwise they stream, and resource-meter and profile
    charges happen as the consumer pulls, so closing a cursor early stops
    the spend. [join] plugs a per-tree evaluator into the path shape: a
    tree whose output is one root node is handed to it instead of being
    walked — the planner's structural join uses this. *)
let rec eval_lazy ?join ?(parallelism = 1) ?chunk_size (ctx : Ctx.t)
    (e : expr) : Item.t Seq.t =
 fun () ->
  match units ?join ctx e with
  | None -> List.to_seq (eval ctx e) ()
  | Some units when parallelism <= 1 || List.compare_length_with units 1 <= 0
    ->
      Seq.concat_map (fun u -> u ctx) (List.to_seq units) ()
  | Some units ->
      let slices =
        Ctx.chunked ~parallelism ?chunk_size ~meter:ctx.Ctx.meter
          ~prof:ctx.Ctx.prof
          (fun meter prof chunk ->
            let c = { ctx with Ctx.meter; prof } in
            List.concat_map (fun u -> List.of_seq (u c)) (Array.to_list chunk))
          (Array.of_list units)
      in
      List.to_seq (List.concat slices) ()

and units ?join (ctx : Ctx.t) (e : expr) :
    (Ctx.t -> Item.t Seq.t) list option =
  match e with
  | EPath (Relative, (SExpr _ as first) :: (_ :: _ as rest))
    when ctx.Ctx.item = None
         && List.for_all (function SAxis _ -> true | SExpr _ -> false) rest ->
      let nodes =
        match Item.nodes_of_seq (eval ctx (EPath (Relative, [ first ]))) with
        | Some nodes -> nodes
        | None ->
            Xerror.mixed_path "intermediate path step produced non-node items"
      in
      let walk c tree = eval_steps c (List.map Item.of_node tree) rest in
      Some
        (List.map
           (fun tree c ->
             List.to_seq
               (match (join, tree) with
               | Some j, [ root ] when root.Node.parent = None ->
                   List.map Item.of_node (Item.doc_order_dedup (j c root))
               | _ -> walk c tree))
           (group_by_tree nodes))
  | EFlwor ((CFor ((v, src) :: more) :: restc as clauses), ret)
    when not (has_order clauses) ->
      let body =
        match if more = [] then restc else CFor more :: restc with
        | [] -> ret
        | clauses -> EFlwor (clauses, ret)
      in
      Some
        (List.map
           (fun item c -> eval_lazy (Ctx.bind c v [ item ]) body)
           (eval ctx src))
  | _ -> None
