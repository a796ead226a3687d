(** The pre/post interval encoding of a document — (pre, post,
    parent-pre, level) per node, the classic encoding of the
    structural-join family — and the axis-step joins over it.

    Each document gets one {!enc}: arrays indexed by the node's
    *preorder rank* within its tree, walked in {!Xdm.Node.renumber}
    order (node, attributes, children) so preorder rank order is
    document order. The derived laws:

    - [descendant(x)] ⇔ [pre x < pre y ≤ end x] — a subtree is a
      contiguous preorder interval, closed by [endp] (its last preorder
      rank);
    - [post parent > post child] and [level child = level parent + 1];
    - ancestor queries follow [parent] pointers; sibling queries hop
      subtrees with [endp + 1].

    Axis steps evaluate as merges over these sorted arrays: a context
    set (bit array in preorder) goes in, the axis result set comes out,
    with staircase pruning on the descendant axes (covered context nodes
    contribute nothing). That answers the reverse and sibling axes —
    which the path-value {!Xindex} cannot express — in one pass per
    document, without materializing intermediate node lists.

    The encoding is derived data of an immutable tree, so it is not a
    catalog object: {!encoding} computes it on a document's first
    structural use and memoizes it on the root node
    ({!Xdm.Node.memoize}). Node trees are shared by reference across
    MVCC table snapshots, so every snapshot sees the same memo, and the
    memo is freed with its tree. *)

open Xquery.Ast
module Node = Xdm.Node
module Qname = Xdm.Qname

(* preorder-indexed; all arrays share length = node count of the tree *)
type enc = {
  nodes : Node.t array;  (** preorder rank → node *)
  post : int array;  (** postorder rank *)
  parent : int array;  (** preorder rank of parent; -1 at the root *)
  level : int array;  (** depth; 0 at the root *)
  kind : int array;  (** {!kind_code} of the node kind *)
  endp : int array;  (** last preorder rank of the subtree *)
}

(* ------------------------------------------------------------------ *)
(* Encoding                                                            *)
(* ------------------------------------------------------------------ *)

let k_document = 0
let k_element = 1
let k_attribute = 2
let k_text = 3
let k_comment = 4
let k_pi = 5

let kind_code = function
  | Node.Document -> k_document
  | Node.Element -> k_element
  | Node.Attribute -> k_attribute
  | Node.Text -> k_text
  | Node.Comment -> k_comment
  | Node.Pi -> k_pi

let rec tree_size (n : Node.t) =
  List.fold_left
    (fun acc c -> acc + tree_size c)
    (1 + List.length n.Node.attrs)
    n.Node.children

(** Encode one document. Pure. *)
let encode_doc (root : Node.t) : enc =
  let n = tree_size root in
  let e =
    {
      nodes = Array.make n root;
      post = Array.make n 0;
      parent = Array.make n (-1);
      level = Array.make n 0;
      kind = Array.make n 0;
      endp = Array.make n 0;
    }
  in
  let pre = ref 0 and post = ref 0 in
  let rec go depth parent_pre (node : Node.t) =
    let p = !pre in
    incr pre;
    e.nodes.(p) <- node;
    e.parent.(p) <- parent_pre;
    e.level.(p) <- depth;
    e.kind.(p) <- kind_code node.Node.kind;
    List.iter (go (depth + 1) p) node.Node.attrs;
    List.iter (go (depth + 1) p) node.Node.children;
    e.endp.(p) <- !pre - 1;
    e.post.(p) <- !post;
    incr post
  in
  go 0 (-1) root;
  e

type Node.memo += Prepost of enc

(** The encoding of a document, memoized on its root node. *)
let encoding (root : Node.t) : enc =
  match Node.memoize root (fun () -> Prepost (encode_doc root)) with
  | Prepost e -> e
  | _ -> encode_doc root

(* ------------------------------------------------------------------ *)
(* Axis-step joins                                                     *)
(* ------------------------------------------------------------------ *)

(** One axis step as a merge over the preorder arrays: context marks in,
    candidate marks out (node tests are applied by the caller). Returns
    the marks and the number of candidates touched. *)
let axis_candidates (e : enc) (axis : axis) (ctx : bool array) :
    bool array * int =
  let n = Array.length e.nodes in
  let out = Array.make n false in
  let touched = ref 0 in
  let mark j =
    if not out.(j) then begin
      out.(j) <- true;
      incr touched
    end
  in
  (match axis with
  | Self ->
      for j = 0 to n - 1 do
        if ctx.(j) then mark j
      done
  | Child ->
      (* structural join on the parent pointer: both sides sorted by pre *)
      for j = 0 to n - 1 do
        let p = e.parent.(j) in
        if p >= 0 && ctx.(p) && e.kind.(j) <> k_attribute then mark j
      done
  | Attr ->
      for j = 0 to n - 1 do
        let p = e.parent.(j) in
        if p >= 0 && ctx.(p) && e.kind.(j) = k_attribute then mark j
      done
  | Descendant | DescOrSelf ->
      (* staircase join: contexts arrive in preorder; a context inside
         an already-emitted interval is covered and skipped *)
      let i = ref 0 in
      while !i < n do
        if ctx.(!i) then begin
          if axis = DescOrSelf then mark !i;
          for j = !i + 1 to e.endp.(!i) do
            if e.kind.(j) <> k_attribute then mark j
          done;
          (* DescOrSelf must still self-mark covered contexts; only the
             pure descendant scan may skip the whole interval *)
          if axis = Descendant then i := e.endp.(!i) + 1 else incr i
        end
        else incr i
      done
  | Parent ->
      for j = 0 to n - 1 do
        if ctx.(j) && e.parent.(j) >= 0 then mark e.parent.(j)
      done
  | Ancestor | AncestorOrSelf ->
      for j = 0 to n - 1 do
        if ctx.(j) then begin
          if axis = AncestorOrSelf then mark j;
          let p = ref e.parent.(j) in
          (* stop at the first already-marked ancestor: its own chain is
             done (amortizes the walk to O(n) over all contexts) *)
          while !p >= 0 && not out.(!p) do
            mark !p;
            p := e.parent.(!p)
          done
        end
      done
  | FollowingSibling ->
      for j = 0 to n - 1 do
        if ctx.(j) && e.kind.(j) <> k_attribute && e.parent.(j) >= 0 then begin
          let k = ref (e.endp.(j) + 1) in
          let continue = ref true in
          while !continue && !k < n && e.parent.(!k) = e.parent.(j) do
            (* an earlier context sibling already marked the rest *)
            if out.(!k) then continue := false
            else begin
              mark !k;
              k := e.endp.(!k) + 1
            end
          done
        end
      done
  | PrecedingSibling ->
      for j = 0 to n - 1 do
        if ctx.(j) && e.kind.(j) <> k_attribute && e.parent.(j) >= 0 then begin
          (* first sibling: just past the parent's attributes *)
          let k = ref (e.parent.(j) + 1) in
          while !k < n && e.kind.(!k) = k_attribute do
            k := !k + 1
          done;
          while !k < j do
            mark !k;
            k := e.endp.(!k) + 1
          done
        end
      done);
  (out, !touched)

(** Replicates {!Xquery.Eval.node_test_matches}: name tests select the
    principal node kind of the axis. *)
let test_matches (e : enc) (axis : axis) (test : nodetest) (j : int) : bool =
  match test with
  | Kind KAnyNode -> true
  | Kind KText -> e.kind.(j) = k_text
  | Kind KComment -> e.kind.(j) = k_comment
  | Kind KDocument -> e.kind.(j) = k_document
  | Kind (KPi None) -> e.kind.(j) = k_pi
  | Kind (KPi (Some target)) ->
      e.kind.(j) = k_pi
      && (match e.nodes.(j).Node.name with
         | Some q -> q.Qname.local = target
         | None -> false)
  | Name nt -> (
      let principal_ok =
        match axis with
        | Attr -> e.kind.(j) = k_attribute
        | _ -> e.kind.(j) = k_element
      in
      principal_ok
      &&
      match (nt, e.nodes.(j).Node.name) with
      | TStar, _ -> true
      | TName q, Some nq -> Qname.equal q nq
      | TNsStar { uri; _ }, Some nq -> String.equal nq.Qname.uri uri
      | TLocalStar l, Some nq -> String.equal nq.Qname.local l
      | _, None -> false)

(** Evaluate a chain of predicate-free axis steps over one document,
    starting from its root. Returns the result nodes in preorder
    (= document order within the tree). *)
let query ?(prof = Xprof.disabled) (root : Node.t)
    (steps : (axis * nodetest) list) : Node.t list =
  let e = encoding root in
  let n = Array.length e.nodes in
  let ctx = Array.make n false in
  ctx.(0) <- true;
  let scanned = ref 0 in
  let marks =
    List.fold_left
      (fun ctx (axis, test) ->
        let out, touched = axis_candidates e axis ctx in
        for j = 0 to n - 1 do
          if out.(j) && not (test_matches e axis test j) then out.(j) <- false
        done;
        scanned := !scanned + touched;
        Xprof.struct_probe prof;
        out)
      ctx steps
  in
  Xprof.struct_entries prof !scanned;
  let acc = ref [] in
  for j = n - 1 downto 0 do
    if marks.(j) then acc := e.nodes.(j) :: !acc
  done;
  !acc
