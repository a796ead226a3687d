(** Checkpoint snapshots: the full catalog (tables, rows, path tables,
    XML and relational indexes) as one plain file.

    Layout: the header [magic, u32 format version], then one
    {!Codec.frame} per catalog entry, each payload opening with a tag
    byte: ['T'] per table, then ['X'] per XML index, ['R'] per relational
    index, and last one ['S'] holding a list of structural-index
    definitions, which closes the file. This build writes that list
    empty and ignores definitions found in older files. A snapshot loads
    whole or not at all. Recovery = load the snapshot,
    then replay the WAL tail on top.

    Node identity is the one thing that does not survive serialization:
    XML values are stored as document text and re-parsed on load, so every
    node gets a fresh id. Index entries therefore go to disk with the
    node's *document-order ordinal* within its row (the walk order of
    {!Xdm.Node.renumber}: node, attributes, children) instead of its node
    id, and the loader remaps ordinals to the freshly parsed nodes'
    ids, re-sorts, and bulk-loads the B+Tree. Relational index keys
    contain no node ids and round-trip unchanged. *)

open Storage
module C = Codec

let magic = "XQDBSNAP"

(* v2 appended the structural-index definition list (the encodings
   themselves are derived data, rebuilt from the reloaded documents);
   v3 replaced the page file with one CRC frame per catalog entry. *)
let format_version = 3

let format_error fmt =
  Xdm.Xerror.raise_err "XQDB0005" fmt

(* ------------------------------------------------------------------ *)
(* Document-order ordinals                                             *)
(* ------------------------------------------------------------------ *)

(** Walk a node tree in {!Xdm.Node.renumber} order. *)
let rec walk f (n : Xdm.Node.t) =
  f n;
  List.iter (walk f) n.Xdm.Node.attrs;
  List.iter (walk f) n.Xdm.Node.children

(** [(row, node id) -> ordinal] for every node of an XML column; ordinals
    are per-row and continue across multiple documents in one value. *)
let ordinals_of_column (t : Table.t) (column : string) :
    (int * int, int) Hashtbl.t =
  let map = Hashtbl.create 1024 in
  let per_row = Hashtbl.create 64 in
  List.iter
    (fun (row, doc) ->
      let next = try Hashtbl.find per_row row with Not_found -> 0 in
      let counter = ref next in
      walk
        (fun n ->
          Hashtbl.replace map (row, n.Xdm.Node.id) !counter;
          incr counter)
        doc;
      Hashtbl.replace per_row row !counter)
    (Table.xml_docs t column);
  map

(** The inverse map after reload: [(row, ordinal) -> node id]. *)
let nodes_of_column (t : Table.t) (column : string) :
    (int * int, int) Hashtbl.t =
  let map = Hashtbl.create 1024 in
  let per_row = Hashtbl.create 64 in
  List.iter
    (fun (row, doc) ->
      let next = try Hashtbl.find per_row row with Not_found -> 0 in
      let counter = ref next in
      walk
        (fun n ->
          Hashtbl.replace map (row, !counter) n.Xdm.Node.id;
          incr counter)
        doc;
      Hashtbl.replace per_row row !counter)
    (Table.xml_docs t column);
  map

(* ------------------------------------------------------------------ *)
(* Catalog encoding                                                    *)
(* ------------------------------------------------------------------ *)

let enc_col buf (c : Table.col_def) =
  C.str buf c.Table.col_name;
  Vcodec.sqltype buf c.Table.col_type

let g_col r : Table.col_def =
  let col_name = C.g_str r in
  let col_type = Vcodec.g_sqltype r in
  { Table.col_name; col_type }

let enc_path_table buf (col_name, (pt : Path_table.t)) =
  C.str buf col_name;
  C.uvarint buf (Path_table.next pt);
  let entries =
    Path_table.fold pt (fun acc id steps -> (id, steps) :: acc) []
    |> List.sort compare
  in
  C.list
    (fun buf (id, steps) ->
      C.uvarint buf id;
      C.list Vcodec.step buf steps)
    buf entries

let enc_table buf (t : Table.t) =
  C.str buf t.Table.name;
  C.list enc_col buf t.Table.cols;
  C.uvarint buf t.Table.next_row_id;
  C.list Vcodec.row buf (Table.rows t);
  let pts = Hashtbl.fold (fun c pt acc -> (c, pt) :: acc) t.Table.path_tables [] in
  C.list enc_path_table buf (List.sort compare pts)

let g_table r : Table.t =
  let name = C.g_str r in
  let cols = C.g_list g_col r in
  let next_row_id = C.g_uvarint r in
  let rows = C.g_list Vcodec.g_row r in
  let t = Table.create name cols in
  t.Table.next_row_id <- next_row_id;
  List.iter (fun (row : Table.row) -> Hashtbl.replace t.Table.rows row.Table.row_id row) rows;
  let n_pts = C.g_uvarint r in
  for _ = 1 to n_pts do
    let col_name = C.g_str r in
    let next = C.g_uvarint r in
    let pt =
      match Hashtbl.find_opt t.Table.path_tables col_name with
      | Some pt -> pt
      | None -> format_error "snapshot path table for unknown column %S" col_name
    in
    let entries = C.g_list (fun r ->
        let id = C.g_uvarint r in
        let steps = C.g_list Vcodec.g_step r in
        (id, steps)) r
    in
    List.iter (fun (id, steps) -> Path_table.define pt ~id steps) entries;
    Path_table.set_next pt next
  done;
  t

let vtype_to_u8 = function
  | Xmlindex.Xindex.VDouble -> 0
  | Xmlindex.Xindex.VVarchar -> 1
  | Xmlindex.Xindex.VDate -> 2
  | Xmlindex.Xindex.VTimestamp -> 3

let vtype_of_u8 = function
  | 0 -> Xmlindex.Xindex.VDouble
  | 1 -> Xmlindex.Xindex.VVarchar
  | 2 -> Xmlindex.Xindex.VDate
  | 3 -> Xmlindex.Xindex.VTimestamp
  | n -> C.corrupt "bad vtype %d" n

let enc_xindex db buf (idx : Xmlindex.Xindex.t) =
  let def = idx.Xmlindex.Xindex.def in
  C.str buf def.Xmlindex.Xindex.iname;
  C.str buf def.Xmlindex.Xindex.table;
  C.str buf def.Xmlindex.Xindex.column;
  C.str buf (Xmlindex.Pattern.to_string def.Xmlindex.Xindex.pattern);
  C.u8 buf (vtype_to_u8 def.Xmlindex.Xindex.vtype);
  let t = Database.table_exn db def.Xmlindex.Xindex.table in
  let ords = ordinals_of_column t def.Xmlindex.Xindex.column in
  C.list
    (fun buf (k : Xmlindex.Xindex.Key.t) ->
      let ord =
        match Hashtbl.find_opt ords (k.Xmlindex.Xindex.Key.row, k.Xmlindex.Xindex.Key.node) with
        | Some o -> o
        | None ->
            format_error "index %S references unknown node (row %d)"
              def.Xmlindex.Xindex.iname k.Xmlindex.Xindex.Key.row
      in
      Vcodec.atomic buf k.Xmlindex.Xindex.Key.v;
      C.uvarint buf k.Xmlindex.Xindex.Key.path;
      C.uvarint buf k.Xmlindex.Xindex.Key.row;
      C.uvarint buf ord)
    buf
    (Xmlindex.Xindex.entries idx)

let g_xindex db r : Xmlindex.Xindex.t =
  let iname = C.g_str r in
  let table = C.g_str r in
  let column = C.g_str r in
  let pattern =
    let src = C.g_str r in
    try Xmlindex.Pattern.of_string src
    with _ -> C.corrupt "bad index pattern %S" src
  in
  let vtype = vtype_of_u8 (C.g_u8 r) in
  let def = { Xmlindex.Xindex.iname; table; column; pattern; vtype } in
  let t =
    match Database.find_table db table with
    | Some t -> t
    | None -> format_error "snapshot index %S on unknown table %S" iname table
  in
  let nodes = nodes_of_column t column in
  let entries =
    C.g_list
      (fun r ->
        let v = Vcodec.g_atomic r in
        let path = C.g_uvarint r in
        let row = C.g_uvarint r in
        let ord = C.g_uvarint r in
        let node =
          match Hashtbl.find_opt nodes (row, ord) with
          | Some id -> id
          | None -> C.corrupt "index %S: ordinal %d missing in row %d" iname ord row
        in
        { Xmlindex.Xindex.Key.v; path; row; node })
      r
  in
  Xmlindex.Xindex.of_entries def entries

let enc_rindex buf (idx : Xmlindex.Rel_index.t) =
  C.str buf idx.Xmlindex.Rel_index.iname;
  C.str buf idx.Xmlindex.Rel_index.table;
  C.str buf idx.Xmlindex.Rel_index.column;
  C.list
    (fun buf (k : Xmlindex.Rel_index.Key.t) ->
      Vcodec.sql_value buf k.Xmlindex.Rel_index.Key.v;
      C.uvarint buf k.Xmlindex.Rel_index.Key.row)
    buf
    (Xmlindex.Rel_index.entries idx)

let g_rindex r : Xmlindex.Rel_index.t =
  let iname = C.g_str r in
  let table = C.g_str r in
  let column = C.g_str r in
  let entries =
    C.g_list
      (fun r ->
        let v = Vcodec.g_sql_value r in
        let row = C.g_uvarint r in
        { Xmlindex.Rel_index.Key.v; row })
      r
  in
  Xmlindex.Rel_index.of_entries ~iname ~table ~column entries

(* The closing ['S'] entry: a list of structural-index definitions
   (name, table, column). Structural indexes are no longer catalog
   objects — each document's pre/post encoding is memoized on its root —
   so the list is written empty (a zero count) and older files'
   definitions are read and dropped. *)
let enc_sdefs buf () = C.uvarint buf 0

let g_sdef r =
  for _ = 1 to 3 do
    ignore (C.g_str r)
  done

(* ------------------------------------------------------------------ *)
(* The file: header, then one frame per catalog entry                  *)
(* ------------------------------------------------------------------ *)

(** Write a full snapshot of [db] (plus indexes) to [path] and fsync it.
    Only one entry's bytes are held at a time. *)
let save ~path db xindexes rindexes =
  let fd = Unix.openfile path Unix.[ O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let buf = Buffer.create 65536 in
      Buffer.add_string buf magic;
      C.u32 buf format_version;
      C.write_all fd (Buffer.contents buf);
      let entry tag enc x =
        Buffer.clear buf;
        C.u8 buf (Char.code tag);
        enc buf x;
        C.write_all fd (C.frame (Buffer.contents buf))
      in
      List.iter (entry 'T' enc_table) (Database.tables db);
      List.iter (entry 'X' (enc_xindex db)) xindexes;
      List.iter (entry 'R' enc_rindex) rindexes;
      entry 'S' enc_sdefs ();
      Unix.fsync fd)

(** Decode the entry frames after the header: tables, XML indexes,
    relational indexes, then the closing structural-definition list,
    which must end the file and whose definitions are dropped. *)
let decode_entries (r : C.reader) =
  let db = Database.create () in
  let rec go xs rs =
    let e =
      match C.g_frame r with
      | Some payload -> C.reader payload
      | None -> C.corrupt "bad or missing frame at byte %d" r.C.pos
    in
    let tag = Char.chr (C.g_u8 e) in
    let entry dec =
      let v = dec e in
      if not (C.at_end e) then C.corrupt "trailing bytes in %C entry" tag;
      v
    in
    match tag with
    | 'T' ->
        let t = entry g_table in
        Hashtbl.add db.Database.tables (String.lowercase_ascii t.Table.name) t;
        go xs rs
    | 'X' -> go (entry (g_xindex db) :: xs) rs
    | 'R' -> go xs (entry g_rindex :: rs)
    | 'S' ->
        ignore (entry (C.g_list g_sdef));
        if not (C.at_end r) then C.corrupt "trailing bytes at %d" r.C.pos;
        (db, List.rev xs, List.rev rs)
    | c -> C.corrupt "bad entry tag %C" c
  in
  go [] []

(** Load a snapshot; raises a coded [XQDB0005] error on an unrecognized
    or incompatible format and on any bad frame, short file or trailing
    bytes. *)
let load ~path () :
    Database.t * Xmlindex.Xindex.t list * Xmlindex.Rel_index.t list =
  let data =
    try In_channel.with_open_bin path In_channel.input_all
    with Sys_error _ -> format_error "cannot read snapshot %s" path
  in
  if not (String.starts_with ~prefix:magic data) then
    format_error "%s is not an xqdb snapshot" path;
  let r = C.reader data in
  r.C.pos <- String.length magic;
  match C.g_u32 r with
  | exception C.Corrupt _ -> format_error "snapshot %s: truncated header" path
  | version when version <> format_version ->
      format_error "snapshot %s: format version %d, this build reads %d" path
        version format_version
  | _ -> (
      try decode_entries r with
      | C.Corrupt m | Invalid_argument m ->
          format_error "snapshot %s: %s" path m)
