(** Binary codecs for catalog values: SQL values, XDM atomics, qualified
    names and path steps. Shared by the WAL record format ({!Wal}) and the
    snapshot format ({!Snapshot}).

    XML values are stored as serialized document text and re-parsed on
    load; node identities are therefore *not* stable across a save/load
    cycle, which is why index entries carry document-order ordinals on
    disk (see {!Snapshot}). *)

open Xdm
module C = Codec

(* ------------------------------------------------------------------ *)
(* Qualified names and path steps                                      *)
(* ------------------------------------------------------------------ *)

let qname buf (q : Qname.t) =
  C.str buf q.Qname.uri;
  C.str buf q.Qname.local;
  C.str buf q.Qname.prefix

let g_qname r =
  let uri = C.g_str r in
  let local = C.g_str r in
  let prefix = C.g_str r in
  Qname.make ~prefix ~uri local

let step buf (s : Node.path_step) =
  match s with
  | `Elem q ->
      C.u8 buf 0;
      qname buf q
  | `Attr q ->
      C.u8 buf 1;
      qname buf q
  | `Text -> C.u8 buf 2
  | `Comment -> C.u8 buf 3
  | `Pi t ->
      C.u8 buf 4;
      C.str buf t

let g_step r : Node.path_step =
  match C.g_u8 r with
  | 0 -> `Elem (g_qname r)
  | 1 -> `Attr (g_qname r)
  | 2 -> `Text
  | 3 -> `Comment
  | 4 -> `Pi (C.g_str r)
  | n -> C.corrupt "bad path step tag %d" n

(* ------------------------------------------------------------------ *)
(* XDM atomics (index key values)                                      *)
(* ------------------------------------------------------------------ *)

let atomic buf (a : Atomic.t) =
  match a with
  | Atomic.Untyped s ->
      C.u8 buf 0;
      C.str buf s
  | Atomic.Str s ->
      C.u8 buf 1;
      C.str buf s
  | Atomic.Boolean b ->
      C.u8 buf 2;
      C.u8 buf (if b then 1 else 0)
  | Atomic.Integer i ->
      C.u8 buf 3;
      C.i64 buf i
  | Atomic.Decimal f ->
      C.u8 buf 4;
      C.f64 buf f
  | Atomic.Double f ->
      C.u8 buf 5;
      C.f64 buf f
  | Atomic.Date d ->
      C.u8 buf 6;
      C.str buf (Xdate.date_to_string d)
  | Atomic.DateTime d ->
      C.u8 buf 7;
      C.str buf (Xdate.datetime_to_string d)

let g_atomic r : Atomic.t =
  match C.g_u8 r with
  | 0 -> Atomic.Untyped (C.g_str r)
  | 1 -> Atomic.Str (C.g_str r)
  | 2 -> Atomic.Boolean (C.g_u8 r <> 0)
  | 3 -> Atomic.Integer (C.g_i64 r)
  | 4 -> Atomic.Decimal (C.g_f64 r)
  | 5 -> Atomic.Double (C.g_f64 r)
  | 6 -> (
      let s = C.g_str r in
      match Xdate.date_of_string_opt s with
      | Some d -> Atomic.Date d
      | None -> C.corrupt "bad date %S" s)
  | 7 -> (
      let s = C.g_str r in
      match Xdate.datetime_of_string_opt s with
      | Some d -> Atomic.DateTime d
      | None -> C.corrupt "bad dateTime %S" s)
  | n -> C.corrupt "bad atomic tag %d" n

(* ------------------------------------------------------------------ *)
(* SQL column types                                                    *)
(* ------------------------------------------------------------------ *)

open Storage

let sqltype buf (t : Sql_value.sqltype) =
  match t with
  | Sql_value.TInt -> C.u8 buf 0
  | Sql_value.TDouble -> C.u8 buf 1
  | Sql_value.TDecimal (p, s) ->
      C.u8 buf 2;
      C.uvarint buf p;
      C.uvarint buf s
  | Sql_value.TVarchar n ->
      C.u8 buf 3;
      C.uvarint buf n
  | Sql_value.TDate -> C.u8 buf 4
  | Sql_value.TTimestamp -> C.u8 buf 5
  | Sql_value.TXml -> C.u8 buf 6

let g_sqltype r : Sql_value.sqltype =
  match C.g_u8 r with
  | 0 -> Sql_value.TInt
  | 1 -> Sql_value.TDouble
  | 2 ->
      let p = C.g_uvarint r in
      let s = C.g_uvarint r in
      Sql_value.TDecimal (p, s)
  | 3 -> Sql_value.TVarchar (C.g_uvarint r)
  | 4 -> Sql_value.TDate
  | 5 -> Sql_value.TTimestamp
  | 6 -> Sql_value.TXml
  | n -> C.corrupt "bad sqltype tag %d" n

(* ------------------------------------------------------------------ *)
(* SQL values                                                          *)
(* ------------------------------------------------------------------ *)

(** One item of an XML value. Document and element nodes round-trip
    through serialized XML text (node identity is not preserved); other
    node kinds cannot appear as stored column values. *)
let item buf (it : Item.t) =
  match it with
  | Item.N n -> (
      match n.Node.kind with
      | Node.Document ->
          C.u8 buf 0;
          C.str buf (Xmlparse.Xml_writer.seq_to_string [ it ])
      | Node.Element ->
          C.u8 buf 1;
          C.str buf (Xmlparse.Xml_writer.seq_to_string [ it ])
      | _ ->
          invalid_arg
            "Vcodec: only document/element nodes are storable XML values")
  | Item.A a ->
      C.u8 buf 2;
      atomic buf a

let g_item r : Item.t =
  match C.g_u8 r with
  | 0 -> Item.N (Xmlparse.Xml_parser.parse_document (C.g_str r))
  | 1 -> (
      let doc = Xmlparse.Xml_parser.parse_document (C.g_str r) in
      match doc.Node.children with
      | [ el ] -> Item.N el
      | _ -> C.corrupt "element value did not reparse to one element")
  | 2 -> Item.A (g_atomic r)
  | n -> C.corrupt "bad item tag %d" n

let sql_value buf (v : Sql_value.t) =
  match v with
  | Sql_value.Null -> C.u8 buf 0
  | Sql_value.Int i ->
      C.u8 buf 1;
      C.i64 buf i
  | Sql_value.Double f ->
      C.u8 buf 2;
      C.f64 buf f
  | Sql_value.Varchar s ->
      C.u8 buf 3;
      C.str buf s
  | Sql_value.Date d ->
      C.u8 buf 4;
      C.str buf (Xdate.date_to_string d)
  | Sql_value.Timestamp t ->
      C.u8 buf 5;
      C.str buf (Xdate.datetime_to_string t)
  | Sql_value.Xml seq ->
      C.u8 buf 6;
      C.list item buf seq

let g_sql_value r : Sql_value.t =
  match C.g_u8 r with
  | 0 -> Sql_value.Null
  | 1 -> Sql_value.Int (C.g_i64 r)
  | 2 -> Sql_value.Double (C.g_f64 r)
  | 3 -> Sql_value.Varchar (C.g_str r)
  | 4 -> (
      let s = C.g_str r in
      match Xdate.date_of_string_opt s with
      | Some d -> Sql_value.Date d
      | None -> C.corrupt "bad DATE %S" s)
  | 5 -> (
      let s = C.g_str r in
      match Xdate.datetime_of_string_opt s with
      | Some d -> Sql_value.Timestamp d
      | None -> C.corrupt "bad TIMESTAMP %S" s)
  | 6 -> Sql_value.Xml (C.g_list g_item r)
  | n -> C.corrupt "bad sql value tag %d" n

(* ------------------------------------------------------------------ *)
(* Rows                                                                *)
(* ------------------------------------------------------------------ *)

let row buf (r : Table.row) =
  C.varint buf r.Table.row_id;
  C.uvarint buf (Array.length r.Table.values);
  Array.iter (sql_value buf) r.Table.values

let g_row r : Table.row =
  let row_id = C.g_varint r in
  let n = C.g_uvarint r in
  let values = Array.make n Sql_value.Null in
  for i = 0 to n - 1 do
    values.(i) <- g_sql_value r
  done;
  { Table.row_id; values }
