(** Access-path selection: predicate tree → index probes → row-id sets.

    The plan model follows the paper's Section 2.2: indexes *pre-filter
    documents* (rows); the full query then runs over the filtered
    collection, so by construction [Q(I(P, D))] is what executes, and
    eligibility guarantees it equals [Q(D)].

    Section 3.10 lives here too: a [>]/[<] pair over the same path merges
    into a single range scan only when the compared value is provably a
    singleton (value comparison, self axis, or attribute); otherwise each
    comparison probes separately and the row sets are intersected ("index
    ANDing"), which scans far more entries. *)

module P = Eligibility.Predicate
module M = Eligibility.Match_index
module X = Xmlindex.Xindex
module S = Xmlindex.Structindex

type catalog = { db : Storage.Database.t; indexes : X.t list }

type t = {
  restrictions : (string * Xdm.Int_set.t) list;
      (** per collection ("TABLE.COLUMN"): row ids that may qualify *)
  notes : string list;  (** EXPLAIN output *)
  indexes_used : string list;
}

let norm = String.lowercase_ascii

let path_table_of (cat : catalog) (collection : string) :
    Storage.Path_table.t option =
  match Storage.Database.split_colref collection with
  | None -> None
  | Some (t, c) -> (
      match Storage.Database.find_table cat.db t with
      | None -> None
      | Some tbl -> Storage.Table.path_table tbl c)

type solver = {
  cat : catalog;
  params : (string * Xdm.Atomic.t) list;
      (** runtime values of externally bound scalar variables (SQL rows) *)
  xml_bindings : (string * Xdm.Item.seq) list;
      (** runtime values of externally bound XML variables — enables
          index nested-loop join probes *)
  mutable notes : string list;
  mutable used : string list;
  par : int;  (** parallelism for AND/OR child solving (1 = sequential) *)
  prof : Xprof.t;
      (** statement profile, charged when parallel solving is gated off *)
}

(** Evaluate the other side of a join comparison under the current
    runtime bindings; [None] when some variable is unbound (not a lateral
    probe opportunity) or evaluation fails. *)
let eval_join_values (s : solver) (jexpr : Xquery.Ast.expr) :
    Xdm.Atomic.t list option =
  try
    let resolver = Storage.Database.resolver s.cat.db in
    let ctx = Xquery.Ctx.init ~resolver () in
    let ctx =
      Xquery.Ctx.bind_all ctx
        (s.xml_bindings
        @ List.map (fun (v, a) -> (v, [ Xdm.Item.A a ])) s.params)
    in
    Some (Xdm.Item.atomize (Xquery.Eval.eval ctx jexpr))
  with _ -> None

let note s fmt = Format.kasprintf (fun m -> s.notes <- m :: s.notes) fmt

(** Probe one index for a leaf with a concrete range. *)
let probe_leaf (s : solver) (idx : X.t) (leaf : P.leaf) (r : X.range) :
    Xdm.Int_set.t option =
  match path_table_of s.cat leaf.P.collection with
  | None -> None
  | Some pt ->
      let paths = X.matching_paths pt leaf.P.path in
      let rows = X.probe_range idx ~paths r in
      s.used <- idx.X.def.X.iname :: s.used;
      note s "  XISCAN %s: %s → %d rows" idx.X.def.X.iname leaf.P.source
        (Xdm.Int_set.cardinal rows);
      Some rows

(** Candidate order: smaller indexes first — a light-weight stand-in for
    DB2's cost-based index choice [Balmin et al., IBM Systems J. 2006]:
    with equal eligibility, the narrower pattern (fewer entries) scans
    less. *)
let by_cost (indexes : X.t list) : X.t list =
  List.stable_sort
    (fun a b -> compare (X.entry_count a) (X.entry_count b))
    indexes

(** Try all indexes for a leaf; log why each ineligible index was
    rejected (the paper's whole point is making this visible). *)
let solve_leaf (s : solver) (leaf : P.leaf) : Xdm.Int_set.t option =
  let rec try_indexes = function
    | [] -> None
    | idx :: rest -> (
        match M.check_leaf idx.X.def leaf with
        | Ok (M.SpecRange r) -> probe_leaf s idx leaf r
        | Ok (M.SpecParam (v, op)) -> (
            match List.assoc_opt v s.params with
            | Some value -> (
                match M.range_of op value idx.X.def.X.vtype with
                | Ok r -> probe_leaf s idx leaf r
                | Error _ -> try_indexes rest)
            | None ->
                note s "  index %s eligible for %s (join/parameter probe)"
                  idx.X.def.X.iname leaf.P.source;
                try_indexes rest)
        | Ok (M.SpecJoin op) -> (
            let jexpr =
              match leaf.P.operand with
              | P.OJoin { jexpr; _ } -> Some jexpr
              | _ -> None
            in
            match Option.bind jexpr (eval_join_values s) with
            | Some values -> (
                (* index nested-loop: probe once per join value, union *)
                match path_table_of s.cat leaf.P.collection with
                | None -> try_indexes rest
                | Some pt ->
                    let paths = X.matching_paths pt leaf.P.path in
                    let rows =
                      List.fold_left
                        (fun acc v ->
                          match M.range_of op v idx.X.def.X.vtype with
                          | Ok r ->
                              Xdm.Int_set.union acc (X.probe_range idx ~paths r)
                          | Error _ -> acc)
                        Xdm.Int_set.empty values
                    in
                    s.used <- idx.X.def.X.iname :: s.used;
                    note s "  XISCAN %s: join probe %s (%d values) → %d rows"
                      idx.X.def.X.iname leaf.P.source (List.length values)
                      (Xdm.Int_set.cardinal rows);
                    Some rows)
            | None ->
                note s "  index %s eligible for %s (join probe)"
                  idx.X.def.X.iname leaf.P.source;
                try_indexes rest)
        | Ok M.SpecStructural -> try_indexes rest
        | Error reason ->
            if norm (M.column_of_def idx.X.def) = norm leaf.P.collection then
              note s "  index %s NOT eligible for %s: %s" idx.X.def.X.iname
                leaf.P.source
                (M.reject_to_string reason);
            try_indexes rest)
  in
  try_indexes (by_cost s.cat.indexes)

let solve_structural (s : solver) (sl : P.struct_leaf) : Xdm.Int_set.t option
    =
  let rec try_indexes = function
    | [] -> None
    | idx :: rest -> (
        match M.check_structural idx.X.def sl with
        | Ok M.SpecStructural -> (
            match path_table_of s.cat sl.P.s_collection with
            | None -> None
            | Some pt ->
                let paths = X.matching_paths pt sl.P.s_path in
                let rows = X.probe_structural idx ~paths in
                s.used <- idx.X.def.X.iname :: s.used;
                note s "  XISCAN %s (structural): %s → %d rows"
                  idx.X.def.X.iname sl.P.s_source
                  (Xdm.Int_set.cardinal rows);
                Some rows)
        | _ -> try_indexes rest)
  in
  try_indexes (by_cost s.cat.indexes)

(* ------------------------------------------------------------------ *)
(* Between detection (Section 3.10)                                    *)
(* ------------------------------------------------------------------ *)

let singleton_ok (l : P.leaf) = l.P.value_cmp || l.P.singleton_path

(** Merging a [>]/[<] pair into one range scan is sound only when both
    comparisons provably apply to the *same* singleton item: either both
    are value comparisons (which enforce singletons at runtime — and
    XQuery permits rewrites that avoid raising such errors), or both hang
    off the same anchor node with a singleton step (self axis or a single
    attribute). Two separate general-comparison paths like
    [lineitem/@price > 100 and lineitem/@price < 200] may be satisfied by
    *different* lineitems and must not be merged (Section 3.10). *)
let mergeable (l : P.leaf) (u : P.leaf) =
  (l.P.value_cmp && u.P.value_cmp)
  || (l.P.anchor = u.P.anchor && l.P.singleton_path && u.P.singleton_path)

let leaf_key (l : P.leaf) =
  (norm l.P.collection, Xmlindex.Pattern.canonical_string l.P.path)

let const_of (l : P.leaf) =
  match l.P.operand with P.OConst c -> Some c | _ -> None

let is_lower (l : P.leaf) = l.P.op = P.CGt || l.P.op = P.CGe
let is_upper (l : P.leaf) = l.P.op = P.CLt || l.P.op = P.CLe

(** Merge a lower-bound and upper-bound pair of leaves over the same path
    into a single BETWEEN range probe, when singleton-safe. Returns the
    merged pairs plus unconsumed children. *)
let try_between (_s : solver) (children : P.t list) :
    (P.leaf * P.leaf) list * P.t list =
  let leaves, others =
    List.partition_map
      (function
        | P.PLeaf l when const_of l <> None && singleton_ok l ->
            Either.Left l
        | t -> Either.Right t)
      children
  in
  let arr = Array.of_list leaves in
  let n = Array.length arr in
  let consumed = Array.make n false in
  let pairs = ref [] in
  Array.iteri
    (fun i l ->
      if (not consumed.(i)) && is_lower l then
        let rec find j =
          if j >= n then ()
          else if
            (not consumed.(j))
            && j <> i
            && is_upper arr.(j)
            && leaf_key arr.(j) = leaf_key l
            && mergeable l arr.(j)
          then begin
            consumed.(i) <- true;
            consumed.(j) <- true;
            pairs := (l, arr.(j)) :: !pairs
          end
          else find (j + 1)
        in
        find 0)
    arr;
  let rest = ref [] in
  Array.iteri
    (fun i l -> if not consumed.(i) then rest := P.PLeaf l :: !rest)
    arr;
  (!pairs, others @ List.rev !rest)

let probe_between (s : solver) (lo : P.leaf) (hi : P.leaf) :
    Xdm.Int_set.t option =
  let rec try_indexes = function
    | [] -> None
    | idx :: rest -> (
        match (M.check_leaf idx.X.def lo, M.check_leaf idx.X.def hi) with
        | Ok (M.SpecRange rlo), Ok (M.SpecRange rhi) -> (
            let r = { X.lo = rlo.X.lo; hi = rhi.X.hi } in
            match path_table_of s.cat lo.P.collection with
            | None -> None
            | Some pt ->
                let paths = X.matching_paths pt lo.P.path in
                let rows = X.probe_range idx ~paths r in
                s.used <- idx.X.def.X.iname :: s.used;
                note s
                  "  XISCAN %s: BETWEEN merged (%s AND %s) — single range \
                   scan → %d rows"
                  idx.X.def.X.iname lo.P.source hi.P.source
                  (Xdm.Int_set.cardinal rows);
                Some rows)
        | _ -> try_indexes rest)
  in
  try_indexes (by_cost s.cat.indexes)

(* ------------------------------------------------------------------ *)
(* Tree solving                                                        *)
(* ------------------------------------------------------------------ *)

(* Parallel index probing is only safe while nothing profiles: a probe
   opens an XISCAN span on the index's shared profile, and the span
   stack is not thread-safe. With profiling off, spans are no-ops and
   probes only touch per-index stat counters (benign int races). *)
let can_solve_parallel (s : solver) =
  s.par > 1 && Xpar.available
  && List.for_all (fun (i : X.t) -> not i.X.prof.Xprof.on) s.cat.indexes

(** Run independent child-solving tasks, each against a private
    notes/used accumulator, then merge both back in task order — so the
    plan's EXPLAIN trace is byte-identical to a sequential solve. *)
let solve_children (s : solver) (tasks : (solver -> Xdm.Int_set.t option) list)
    : Xdm.Int_set.t option list =
  if List.length tasks < 2 || not (can_solve_parallel s) then begin
    (* The gate above is silent by default: parallelism was requested
       and available, but armed index profiling forces a sequential
       solve. Make it observable — a profile counter (mirrored as
       [xpar_gated_total] in the registry) and a plan note. *)
    if List.length tasks >= 2 && s.par > 1 && Xpar.available then begin
      Xprof.gated s.prof;
      note s
        "  parallel AND/OR solve gated off (index profiling armed): %d \
         tasks run sequentially"
        (List.length tasks)
    end;
    List.map (fun task -> task s) tasks
  end
  else begin
    let results =
      Xpar.map_list ~parallelism:s.par ~chunk_size:1
        (fun task ->
          let sub = { s with notes = []; used = [] } in
          let r = task sub in
          (r, sub.notes, sub.used))
        tasks
    in
    List.map
      (fun (r, notes, used) ->
        s.notes <- notes @ s.notes;
        s.used <- used @ s.used;
        r)
      results
  end

let rec solve (s : solver) (tree : P.t) : Xdm.Int_set.t option =
  match tree with
  | P.PTrue -> None
  | P.PLeaf l -> solve_leaf s l
  | P.PStructural sl -> solve_structural s sl
  | P.PAnd children ->
      let pairs, rest = try_between s children in
      let results =
        solve_children s
          (List.map (fun (lo, hi) s -> probe_between s lo hi) pairs
          @ List.map (fun child s -> solve s child) rest)
      in
      let somes = List.filter_map Fun.id results in
      (match somes with
      | [] -> None
      | first :: more ->
          if more <> [] then
            note s "  IXAND: intersecting %d row sets" (List.length somes);
          Some (List.fold_left Xdm.Int_set.inter first more))
  | P.POr children ->
      let results =
        solve_children s (List.map (fun child s -> solve s child) children)
      in
      if List.exists Option.is_none results then None
      else begin
        if List.length results > 1 then
          note s "  IXOR: union of %d row sets" (List.length results);
        Some
          (List.fold_left Xdm.Int_set.union Xdm.Int_set.empty
             (List.filter_map Fun.id results))
      end

(** Plan a predicate tree: per collection, attempt a row-set restriction. *)
let plan ?(params : (string * Xdm.Atomic.t) list = [])
    ?(xml_bindings : (string * Xdm.Item.seq) list = []) ?(parallelism = 1)
    ?(prof = Xprof.disabled) (cat : catalog) (tree : P.t) : t =
  let tree = P.simplify tree in
  let collections = List.sort_uniq compare (P.collections tree) in
  let s =
    {
      cat;
      params;
      xml_bindings;
      notes = [];
      used = [];
      par = parallelism;
      prof;
    }
  in
  note s "predicate tree: %s" (P.to_string tree);
  let restrictions =
    List.filter_map
      (fun coll ->
        let sub = P.simplify (P.for_collection coll tree) in
        match solve s sub with
        | Some rows ->
            note s "collection %s restricted to %d rows" coll
              (Xdm.Int_set.cardinal rows);
            Some (coll, rows)
        | None ->
            note s "collection %s: full scan (no usable index)" coll;
            None)
      collections
  in
  {
    restrictions;
    notes = List.rev s.notes;
    indexes_used = List.sort_uniq compare s.used;
  }

(* ------------------------------------------------------------------ *)
(* End-to-end execution of stand-alone XQuery                          *)
(* ------------------------------------------------------------------ *)

(** Restrict a single collection under runtime bindings; [None] = no
    usable index (full scan). Used by the SQL executor's lateral
    (per-outer-row) restriction. *)
let restrict_collection ?(params = []) ?(xml_bindings = [])
    ?(parallelism = 1) ?(prof = Xprof.disabled) (cat : catalog) (tree : P.t)
    (collection : string) :
    Xdm.Int_set.t option * string list * string list =
  let s =
    {
      cat;
      params;
      xml_bindings;
      notes = [];
      used = [];
      par = parallelism;
      prof;
    }
  in
  let sub = P.simplify (P.for_collection collection tree) in
  let r = solve s sub in
  (r, List.rev s.notes, List.sort_uniq compare s.used)

(* ------------------------------------------------------------------ *)
(* Compiled statements (the prepared-statement front half)             *)
(* ------------------------------------------------------------------ *)

(** The data-independent front half of a stand-alone XQuery: parsed,
    statically resolved, eligibility predicate tree extracted. Index
    probing is data-dependent (the planner reads index contents), so it
    happens per execution, not at compile time. *)
type compiled = {
  c_src : string;
  c_query : Xquery.Ast.query;
  c_tree : P.t;
  c_params : string list;
      (** free variables of the query = named parameter slots *)
}

let compiled_src (c : compiled) = c.c_src
let compiled_params (c : compiled) = c.c_params

(** Parse, statically resolve and analyze once. Free variables become
    parameter slots: they resolve as external variables and analyze as
    untyped scalar parameters, so indexes stay eligible for
    [\@price > $p]-style predicates and are probed with the bound value at
    execute time. *)
let compile (src : string) : compiled =
  let q = Xquery.Parser.parse_query src in
  let params = Xquery.Static.free_vars q in
  let q = Xquery.Static.resolve ~external_vars:params q in
  let tree =
    Eligibility.Extract.analyze
      ~scalar_params:(List.map (fun v -> (v, None)) params)
      q
  in
  { c_src = src; c_query = q; c_tree = tree; c_params = params }

(** Split runtime bindings into scalar parameters (singleton atomics, fed
    to [SpecParam] probes) and XML bindings (fed to join probes). *)
let split_bindings (vars : (string * Xdm.Item.seq) list) :
    (string * Xdm.Atomic.t) list * (string * Xdm.Item.seq) list =
  List.fold_left
    (fun (ps, xs) (v, seq) ->
      match seq with
      | [ Xdm.Item.A a ] -> ((v, a) :: ps, xs)
      | _ -> (ps, (v, seq) :: xs))
    ([], []) vars

let no_index_plan : t =
  { restrictions = []; notes = [ "index use disabled" ]; indexes_used = [] }

(* ------------------------------------------------------------------ *)
(* Structural-join execution                                           *)
(* ------------------------------------------------------------------ *)

(** Is the query body a predicate-free axis pipeline over one stored
    collection — [db2-fn:xmlcolumn('T.C')/step/step/...] with every step
    a bare axis? That is the [PStructJoin] shape: each step becomes one
    structural (interval/staircase) join over the collection's node
    encoding. Returns the collection and the axis descriptors. *)
let struct_shape (body : Xquery.Ast.expr) :
    (string * (Xquery.Ast.axis * Xquery.Ast.nodetest) list) option =
  match body with
  | Xquery.Ast.EPath
      ( Xquery.Ast.Relative,
        (Xquery.Ast.SExpr
           {
             expr =
               Xquery.Ast.ECall
                 {
                   prefix = "db2-fn" | "";
                   local = "xmlcolumn" | "collection";
                   args = [ Xquery.Ast.ELit (Xdm.Atomic.Str coll) ];
                 };
             preds = [];
           })
        :: (_ :: _ as rest) ) ->
      let rec axes acc = function
        | [] -> Some (List.rev acc)
        | Xquery.Ast.SAxis { axis; test; preds = [] } :: tl ->
            axes ((axis, test) :: acc) tl
        | _ -> None
      in
      Option.map (fun steps -> (coll, steps)) (axes [] rest)
  | _ -> None

(** The structural join as the path decomposition's per-tree evaluator
    (see {!Xquery.Eval.eval_lazy}): when the body has the [PStructJoin]
    shape, each document's steps run as array joins over its (pre, post,
    parent, level) encoding, memoized on the document root on first use.
    Returns the join and the plan with its notes; [None] when the shape
    does not match. *)
let structural (c : compiled) (plan_t : t) :
    ((Xquery.Ctx.t -> Xdm.Node.t -> Xdm.Node.t list) * t) option =
  match struct_shape c.c_query.Xquery.Ast.body with
  | None -> None
  | Some (coll, steps) ->
      let join (ctx : Xquery.Ctx.t) root =
        let prof = ctx.Xquery.Ctx.prof in
        Xprof.spanned prof "PSTRUCTJOIN" (fun () -> S.query ~prof root steps)
      in
      let notes =
        Printf.sprintf "collection %s: structural join (%d axis steps)" coll
          (List.length steps)
        :: List.map
             (fun (axis, test) ->
               Printf.sprintf "  PSTRUCTJOIN %s::%s"
                 (Xquery.Ast.axis_name axis)
                 (Xquery.Ast.nodetest_to_string test))
             steps
      in
      Some (join, { plan_t with notes = plan_t.notes @ notes })

(** Make the structural-vs-navigation choice visible: when a query walks
    a reverse or sibling axis without a structural join, say so in the
    plan notes (one [nav-axis] line per distinct axis). *)
let nav_axis_notes (c : compiled) (plan_t : t) : t =
  match Eligibility.Extract.reverse_axes c.c_query with
  | [] -> plan_t
  | axes ->
      let notes =
        List.map
          (fun a ->
            Printf.sprintf "nav-axis: %s (tree-walk)" (Xquery.Ast.axis_name a))
          axes
      in
      { plan_t with notes = plan_t.notes @ notes }

(** Plan a compiled query under runtime parameter bindings and return
    its lazy producer, the plan and the statement's governor. Planning
    (index probes) happens at the call; items are produced as the
    consumer pulls — per document or per binding for the shapes
    {!Xquery.Eval.eval_lazy} decomposes, in contiguous chunks when
    [parallelism > 1] — so an early-closed cursor stops consuming the
    meter's budget. Materializing is [List.of_seq]. *)
let execute ?(limits = Xdm.Limits.unlimited) ?(prof = Xprof.disabled)
    ?(use_indexes = true) ?(vars : (string * Xdm.Item.seq) list = [])
    ?(parallelism = 1) ?chunk_size (cat : catalog) (c : compiled) :
    Xdm.Item.t Seq.t * t * Xdm.Limits.meter =
  let plan_t =
    if use_indexes then begin
      let params, xml_bindings = split_bindings vars in
      (* planning itself probes indexes; span it so index probe time
         shows up under PLAN rather than inside the XQUERY operator *)
      Xprof.spanned prof "PLAN" (fun () ->
          plan ~params ~xml_bindings ~parallelism ~prof cat c.c_tree)
    end
    else no_index_plan
  in
  let resolver =
    Storage.Database.resolver ~prof ~restrict_to:plan_t.restrictions cat.db
  in
  let meter = Xdm.Limits.meter ~limits () in
  let ctx =
    Xquery.Ctx.init ~resolver
      ~construction_preserve:
        c.c_query.Xquery.Ast.prolog.Xquery.Ast.construction_preserve
      ~meter ~prof ()
  in
  let ctx = Xquery.Ctx.bind_all ctx vars in
  let join, plan_t =
    match if use_indexes then structural c plan_t else None with
    | Some (join, plan_t) -> (Some join, plan_t)
    | None -> (None, nav_axis_notes c plan_t)
  in
  ( Xquery.Eval.eval_lazy ?join ~parallelism ?chunk_size ctx
      c.c_query.Xquery.Ast.body,
    plan_t,
    meter )
