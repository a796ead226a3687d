(** XDM nodes: mutable trees with *node identity* and *document order*.

    Node identity is central to the paper's Section 3.6: element
    construction creates nodes with fresh identities, so rewrites that
    eliminate construction can change the meaning of [is] / [except] /
    [union]. Every node carries a globally unique [id]; identity is [id]
    equality, never structural equality. *)

type kind = Document | Element | Attribute | Text | Comment | Pi

(** Type annotation of an element or attribute node. Non-validated
    elements are [xs:untyped]; non-validated attributes are
    [xdt:untypedAtomic] (Section 3.1 of the paper). Validation (see
    [Xschema]) replaces the annotation with a simple type. *)
type annotation = Untyped | SimpleType of Atomic.atomic_type

(** Data derived from a whole tree and memoized on its root. Extensible
    because its one constructor, the structural join's pre/post encoding
    ({!Xmlindex.Structindex.encoding}), is defined in a library above
    this one. *)
type memo = ..

type t = {
  id : int;
  kind : kind;
  name : Qname.t option;  (** element/attribute name, PI target *)
  mutable parent : t option;
  mutable children : t list;  (** document & element content, in order *)
  mutable attrs : t list;  (** element attributes *)
  mutable content : string;  (** text / comment / PI / attribute value *)
  mutable ann : annotation;
  mutable typed : Atomic.t list option;
      (** typed value memoized by validation *)
  mutable ord : int;  (** document-order position, valid when the root's
                          [ord_valid] is set *)
  mutable ord_valid : bool;  (** meaningful on root nodes only *)
  mutable tree_ord : int;
      (** cross-tree rank of a root node, defaulting to its [id]; bulk
          load overrides it (see {!set_tree_order}) so collection order
          follows row order even when documents were parsed in parallel
          and their ids interleave across chunks *)
  memo : memo option Stdlib.Atomic.t;
      (** see {!memoize}; meaningful on document nodes only *)
}

(* Atomic so parallel chunks (constructors, parsing) can mint ids
   concurrently without duplicates. *)
let counter = Stdlib.Atomic.make 0
let fresh_id () = Stdlib.Atomic.fetch_and_add counter 1 + 1

(* Only document nodes get a memo cell of their own; every other node
   shares this one, which {!memoize} never writes. *)
let no_memo = Stdlib.Atomic.make None
let memo_cell = function Document -> Stdlib.Atomic.make None | _ -> no_memo

let mk kind name =
  let id = fresh_id () in
  {
    id;
    kind;
    name;
    parent = None;
    children = [];
    attrs = [];
    content = "";
    ann = Untyped;
    typed = None;
    ord = 0;
    ord_valid = false;
    tree_ord = id;
    memo = memo_cell kind;
  }

let document () = mk Document None
let element name = mk Element (Some name)

let attribute name value =
  let n = mk Attribute (Some name) in
  n.content <- value;
  n

let text s =
  let n = mk Text None in
  n.content <- s;
  n

let comment s =
  let n = mk Comment None in
  n.content <- s;
  n

let pi target data =
  let n = mk Pi (Some (Qname.make target)) in
  n.content <- data;
  n

(* ------------------------------------------------------------------ *)
(* Structure                                                           *)
(* ------------------------------------------------------------------ *)

let rec root n = match n.parent with None -> n | Some p -> root p

let invalidate_order n =
  let r = root n in
  r.ord_valid <- false;
  if Option.is_some (Stdlib.Atomic.get r.memo) then Stdlib.Atomic.set r.memo None

let append_child parent child =
  child.parent <- Some parent;
  parent.children <- parent.children @ [ child ];
  invalidate_order parent

let set_children parent children =
  List.iter (fun c -> c.parent <- Some parent) children;
  parent.children <- children;
  invalidate_order parent

let add_attr el attr =
  attr.parent <- Some el;
  el.attrs <- el.attrs @ [ attr ];
  invalidate_order el

let identical a b = a.id = b.id

(** Renumber the tree below [r] in document order. Attributes follow their
    element and precede its children, per the data model. *)
let renumber r =
  let i = ref 0 in
  let rec go n =
    n.ord <- !i;
    incr i;
    List.iter go n.attrs;
    List.iter go n.children
  in
  go r;
  r.ord_valid <- true

(** Total order consistent with document order within a tree; across trees
    the order is stable but implementation-defined (by root id), as the
    XQuery spec permits. *)
let doc_compare a b =
  if a.id = b.id then 0
  else
    let ra = root a and rb = root b in
    if ra.id <> rb.id then
      compare (ra.tree_ord, ra.id) (rb.tree_ord, rb.id)
    else begin
      if not ra.ord_valid then renumber ra;
      compare a.ord b.ord
    end

(** Override the cross-tree rank of [root]. {!fresh_rank} draws from the
    same counter as node ids, so default-ranked trees (rank = id) and
    explicitly ranked ones stay totally ordered. *)
let set_tree_order root rank = root.tree_ord <- rank

let fresh_rank () = fresh_id ()

(** The memo of document node [n], computing it on first use. Stored
    trees are not mutated after parse (a mutation clears the memo, see
    {!invalidate_order}), so the memo stays valid for the tree's
    lifetime and is freed with it. Domains racing on the first use each
    compute, and one compare-and-set publishes: every caller gets the
    published value. Other nodes are computed afresh at every call. *)
let memoize n (compute : unit -> memo) : memo =
  match Stdlib.Atomic.get n.memo with
  | Some m -> m
  | None -> (
      let m = compute () in
      if n.kind <> Document || Stdlib.Atomic.compare_and_set n.memo None (Some m)
      then m
      else match Stdlib.Atomic.get n.memo with Some won -> won | None -> m)

(* ------------------------------------------------------------------ *)
(* Values                                                              *)
(* ------------------------------------------------------------------ *)

(** String value: for documents and elements, the concatenation of all
    descendant text nodes (the paper: an interior node is indexed "as the
    concatenation of all text nodes below it"). *)
let string_value n =
  match n.kind with
  | Text | Comment | Pi | Attribute -> n.content
  | Document | Element ->
      let buf = Buffer.create 16 in
      let rec go n =
        match n.kind with
        | Text -> Buffer.add_string buf n.content
        | Element | Document -> List.iter go n.children
        | _ -> ()
      in
      go n;
      Buffer.contents buf

(** Typed value, as used by [fn:data()]. Untyped elements and attributes
    atomize to [xdt:untypedAtomic]; validated nodes atomize to their
    annotated simple type (memoized in [typed]). *)
let typed_value n : Atomic.t list =
  match n.typed with
  | Some v -> v
  | None -> (
      match (n.kind, n.ann) with
      | (Element | Document), Untyped -> [ Atomic.Untyped (string_value n) ]
      | Attribute, Untyped -> [ Atomic.Untyped n.content ]
      | (Element | Attribute | Document), SimpleType t ->
          let v = [ Atomic.cast (Atomic.Untyped (string_value n)) t ] in
          n.typed <- Some v;
          v
      | Text, _ -> [ Atomic.Untyped n.content ]
      | (Comment | Pi), _ -> [ Atomic.Str n.content ])

(* ------------------------------------------------------------------ *)
(* Copying (construction semantics)                                    *)
(* ------------------------------------------------------------------ *)

(** Deep copy with fresh node identities. With [strip_types] (the default,
    matching construction in "strip" mode), element annotations revert to
    [xs:untyped] and attributes to [xdt:untypedAtomic] — one of the
    Section 3.6 rewrite obstacles. *)
let rec copy ?(strip_types = true) n =
  let id = fresh_id () in
  let c =
    {
      id;
      kind = n.kind;
      name = n.name;
      parent = None;
      children = [];
      attrs = [];
      content = n.content;
      ann = (if strip_types then Untyped else n.ann);
      typed = (if strip_types then None else n.typed);
      ord = 0;
      ord_valid = false;
      tree_ord = id;
      memo = memo_cell n.kind;
    }
  in
  let kids = List.map (fun k -> copy ~strip_types k) n.children in
  List.iter (fun k -> k.parent <- Some c) kids;
  c.children <- kids;
  let ats = List.map (fun a -> copy ~strip_types a) n.attrs in
  List.iter (fun a -> a.parent <- Some c) ats;
  c.attrs <- ats;
  c

(* ------------------------------------------------------------------ *)
(* Axes helpers                                                        *)
(* ------------------------------------------------------------------ *)

let rec descendants n =
  List.concat_map (fun c -> c :: descendants c) n.children

let descendants_or_self n = n :: descendants n

let ancestors n =
  let rec go acc n =
    match n.parent with None -> acc | Some p -> go (p :: acc) p
  in
  go [] n
(* returned root-first *)

(** Rooted path of a node as a list of steps root-first, used by the path
    table. Each step is [`Elem qname], [`Attr qname], [`Text], [`Comment]
    or [`Pi target]. The document node itself contributes no step. *)
type path_step =
  [ `Elem of Qname.t | `Attr of Qname.t | `Text | `Comment | `Pi of string ]

let step_of_node n : path_step option =
  match n.kind with
  | Document -> None
  | Element -> Some (`Elem (Option.get n.name))
  | Attribute -> Some (`Attr (Option.get n.name))
  | Text -> Some `Text
  | Comment -> Some `Comment
  | Pi -> Some (`Pi (Option.get n.name).Qname.local)

let rooted_path n : path_step list =
  let steps = List.filter_map step_of_node (ancestors n @ [ n ]) in
  steps

let step_to_string : path_step -> string = function
  | `Elem q -> Qname.to_clark q
  | `Attr q -> "@" ^ Qname.to_clark q
  | `Text -> "text()"
  | `Comment -> "comment()"
  | `Pi t -> "processing-instruction(" ^ t ^ ")"

let path_key n =
  "/" ^ String.concat "/" (List.map step_to_string (rooted_path n))

let kind_to_string = function
  | Document -> "document"
  | Element -> "element"
  | Attribute -> "attribute"
  | Text -> "text"
  | Comment -> "comment"
  | Pi -> "processing-instruction"
