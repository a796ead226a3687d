(** Reference evaluator for predicate-free axis pipelines
    ([db2-fn:xmlcolumn('T.C')/axis::test/...]), independent of both the
    structural join ({!Xmlindex.Structindex}) and the tree-walk
    evaluator ({!Xquery.Eval}).

    It numbers every document with its own preorder walk (node,
    attributes, children) into (pre, post, parent) triples, and defines
    each axis as a predicate over two such triples — the pre/post plane
    of the structural-join literature: [y] is a descendant of [x] iff
    [pre x < pre y] and [post y < post x]. A step keeps every node [y]
    for which some context node [x] satisfies [axis x y] and [y] passes
    the node test; nothing is pruned or merged, so the cost is quadratic
    per document and the code is the definition. *)

open Xquery.Ast
module Node = Xdm.Node

type row = {
  node : Node.t;
  pre : int;
  post : int;
  parent : int;  (** pre of the parent; -1 at the root *)
  level : int;
}

let is_attr r = r.node.Node.kind = Node.Attribute

(** Preorder-indexed rows of one tree. *)
let number (root : Node.t) : row array =
  let acc = ref [] and pre = ref 0 and post = ref 0 in
  let rec go parent level (n : Node.t) =
    let p = !pre in
    incr pre;
    List.iter (go p (level + 1)) n.Node.attrs;
    List.iter (go p (level + 1)) n.Node.children;
    acc := { node = n; pre = p; post = !post; parent; level } :: !acc;
    incr post
  in
  go (-1) 0 root;
  let rows = Array.of_list !acc in
  Array.sort (fun a b -> compare a.pre b.pre) rows;
  rows

(** [axis x y]: is [y] on [axis] from context [x]? *)
let on_axis (axis : axis) (x : row) (y : row) : bool =
  let self = x.pre = y.pre in
  let desc = x.pre < y.pre && y.post < x.post && not (is_attr y) in
  let anc = y.pre < x.pre && x.post < y.post in
  let sibling =
    x.parent >= 0 && y.parent = x.parent
    && (not (is_attr x))
    && not (is_attr y)
  in
  match axis with
  | Self -> self
  | Child -> y.parent = x.pre && not (is_attr y)
  | Attr -> y.parent = x.pre && is_attr y
  | Descendant -> desc
  | DescOrSelf -> desc || self
  | Parent -> x.parent = y.pre
  | Ancestor -> anc
  | AncestorOrSelf -> anc || self
  | FollowingSibling -> sibling && y.pre > x.pre
  | PrecedingSibling -> sibling && y.pre < x.pre

(** Node test; a name test selects the axis's principal node kind. *)
let passes (axis : axis) (test : nodetest) (y : row) : bool =
  let n = y.node in
  match test with
  | Kind KAnyNode -> true
  | Kind KText -> n.Node.kind = Node.Text
  | Kind KComment -> n.Node.kind = Node.Comment
  | Kind KDocument -> n.Node.kind = Node.Document
  | Kind (KPi target) -> (
      n.Node.kind = Node.Pi
      &&
      match (target, n.Node.name) with
      | None, _ -> true
      | Some t, Some q -> q.Xdm.Qname.local = t
      | Some _, None -> false)
  | Name nt -> (
      let principal =
        if axis = Attr then Node.Attribute else Node.Element
      in
      n.Node.kind = principal
      &&
      match (nt, n.Node.name) with
      | TStar, _ -> true
      | TName q, Some m -> Xdm.Qname.equal q m
      | TNsStar { uri; _ }, Some m -> m.Xdm.Qname.uri = uri
      | TLocalStar l, Some m -> m.Xdm.Qname.local = l
      | _, None -> false)

(** The steps' result over one tree, in document order. *)
let eval_tree (steps : (axis * nodetest) list) (root : Node.t) : Node.t list =
  let rows = number root in
  let final =
    List.fold_left
      (fun ctx (axis, test) ->
        List.filter
          (fun y ->
            passes axis test y && List.exists (fun x -> on_axis axis x y) ctx)
          (Array.to_list rows))
      [ rows.(0) ] steps
  in
  List.map (fun r -> r.node) final

(** The collection and the steps of a predicate-free axis pipeline, or
    [None] for any other query shape. *)
let pipeline (src : string) : (string * (axis * nodetest) list) option =
  let q = Xquery.Static.resolve (Xquery.Parser.parse_query src) in
  match q.body with
  | EPath
      ( Relative,
        SExpr
          {
            expr =
              ECall
                {
                  local = "xmlcolumn" | "collection";
                  args = [ ELit (Xdm.Atomic.Str coll) ];
                  _;
                };
            preds = [];
          }
        :: (_ :: _ as rest) ) ->
      let rec steps acc = function
        | [] -> Some (coll, List.rev acc)
        | SAxis { axis; test; preds = [] } :: tl -> steps ((axis, test) :: acc) tl
        | _ -> None
      in
      steps [] rest
  | _ -> None

(** The documents of a stored XML column, in collection order. *)
let documents (db : Storage.Database.t) (coll : string) : Node.t list =
  match Storage.Database.split_colref coll with
  | None -> []
  | Some (t, c) ->
      List.sort Node.doc_compare
        (List.map snd
           (Storage.Table.xml_docs (Storage.Database.table_exn db t) c))

(** Evaluate [src] over [db]; [None] when it is not an axis pipeline. *)
let eval (db : Storage.Database.t) (src : string) : Node.t list option =
  Option.map
    (fun (coll, steps) ->
      List.concat_map (eval_tree steps) (documents db coll))
    (pipeline src)
