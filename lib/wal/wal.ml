(** Write-ahead log.

    Every mutating statement appends one *group* of records:

    {v Begin(seq) · [Row | Ddl]* · Commit(seq) v}

    and only the Commit makes the group durable: replay applies a group
    iff its Commit record survived intact, so a crash anywhere inside a
    statement (including mid-append) recovers to the pre-statement
    state — the WAL-level mirror of the in-memory per-statement undo log.

    Each record is one {!Codec.frame}, whose CRC covers the length bytes
    *and* the payload, so a torn or bit-flipped tail — even one that
    corrupts the length field itself — is detected and replay stops at
    the last intact record. On reopen the tail after the last committed
    record is truncated away.

    Redo records are logical: row operations carry full row images
    (values serialized through {!Vcodec}), DDL is replayed by re-executing
    the statement text. Both are idempotent against the snapshot they
    apply to because replay starts from the checkpointed image and applies
    groups in log order. *)

module C = Codec

(** Re-exports, so library users see [Wal.Snapshot] / [Wal.Vcodec] /
    [Wal.Codec]. *)
module Snapshot = Snapshot

module Vcodec = Vcodec
module Codec = Codec

type record =
  | Begin of int  (** statement sequence number *)
  | Commit of int
  | Ddl of string  (** statement text, re-executed on replay *)
  | Row of string * Storage.Table.jop  (** table name, row redo record *)

(* ------------------------------------------------------------------ *)
(* Record payloads                                                     *)
(* ------------------------------------------------------------------ *)

let encode_record (rec_ : record) : string =
  let buf = Buffer.create 64 in
  (match rec_ with
  | Begin seq ->
      C.u8 buf (Char.code 'B');
      C.uvarint buf seq
  | Commit seq ->
      C.u8 buf (Char.code 'C');
      C.uvarint buf seq
  | Ddl text ->
      C.u8 buf (Char.code 'D');
      C.str buf text
  | Row (table, op) -> (
      C.u8 buf (Char.code 'R');
      C.str buf table;
      match op with
      | Storage.Table.Jinsert row ->
          C.u8 buf 0;
          Vcodec.row buf row
      | Storage.Table.Jdelete row ->
          C.u8 buf 1;
          Vcodec.row buf row
      | Storage.Table.Jupdate (old_row, new_row) ->
          C.u8 buf 2;
          Vcodec.row buf old_row;
          Vcodec.row buf new_row));
  Buffer.contents buf

let decode_record (payload : string) : record =
  let r = C.reader payload in
  let rec_ =
    match Char.chr (C.g_u8 r) with
    | 'B' -> Begin (C.g_uvarint r)
    | 'C' -> Commit (C.g_uvarint r)
    | 'D' -> Ddl (C.g_str r)
    | 'R' -> (
        let table = C.g_str r in
        match C.g_u8 r with
        | 0 -> Row (table, Storage.Table.Jinsert (Vcodec.g_row r))
        | 1 -> Row (table, Storage.Table.Jdelete (Vcodec.g_row r))
        | 2 ->
            let old_row = Vcodec.g_row r in
            let new_row = Vcodec.g_row r in
            Row (table, Storage.Table.Jupdate (old_row, new_row))
        | n -> C.corrupt "bad row op tag %d" n)
    | c -> C.corrupt "bad record tag %C" c
  in
  if not (C.at_end r) then C.corrupt "trailing bytes in record";
  rec_

(* ------------------------------------------------------------------ *)
(* The log writer                                                      *)
(* ------------------------------------------------------------------ *)

type t = {
  fd : Unix.file_descr;
  path : string;
  sync : bool;  (** fsync on commit (durable+fsync mode) *)
  count : string -> unit;
}

let no_count (_ : string) = ()

(** Open [path] for appending, truncated to [keep] bytes first (the end
    of the last committed record found by {!replay}); pass [keep = 0] for
    a fresh log. *)
let open_log ?(sync = true) ?(count = no_count) ?(keep = 0) path =
  let fd = Unix.openfile path Unix.[ O_RDWR; O_CREAT ] 0o644 in
  Unix.ftruncate fd keep;
  ignore (Unix.lseek fd keep Unix.SEEK_SET);
  { fd; path; sync; count }

(** Append one record (no durability guarantee until {!commit}). *)
let append t (rec_ : record) =
  Faultinject.hit "wal.append";
  C.write_all t.fd (C.frame (encode_record rec_));
  t.count "wal_appends"

(** Make everything appended so far durable (the commit point of the
    enclosing statement). In [sync:false] mode the data still reaches the
    file (same-process crashes lose nothing) but no fsync is issued. *)
let commit t seq =
  append t (Commit seq);
  Faultinject.hit "wal.fsync";
  if t.sync then begin
    Unix.fsync t.fd;
    t.count "wal_fsyncs"
  end

(** Flush the log to stable storage regardless of the [sync] mode (clean
    shutdown). *)
let sync_log t = try Unix.fsync t.fd with Unix.Unix_error _ -> ()

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Replay                                                              *)
(* ------------------------------------------------------------------ *)

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> ""
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))

type replay_result = {
  committed_end : int;
      (** byte offset just after the last committed record; the tail
          beyond it is garbage (torn writes, uncommitted groups) and is
          truncated by the next {!open_log} *)
  redo_records : int;  (** row/DDL records applied *)
  statements : int;  (** committed groups applied *)
}

(** Scan the log at [path], applying every record of every *committed*
    group, in log order, via [apply]. Corrupt or torn records end the
    scan (everything after them is unreachable garbage); an uncommitted
    trailing group is skipped entirely. *)
let replay ?(apply = fun (_ : record) -> ()) path : replay_result =
  let log = C.reader (read_file path) in
  let committed_end = ref 0 in
  let redo = ref 0 in
  let stmts = ref 0 in
  let pending = ref None in  (* Some (seq, rev records) while in a group *)
  let rec go () =
    match Option.map decode_record (C.g_frame log) with
    | None | (exception C.Corrupt _) -> ()
    | Some rec_ ->
        (match rec_ with
        | Begin seq ->
            (* an unfinished predecessor group is abandoned *)
            pending := Some (seq, [])
        | Commit seq -> (
            match !pending with
            | Some (s, revs) when s = seq ->
                List.iter
                  (fun r ->
                    apply r;
                    incr redo)
                  (List.rev revs);
                incr stmts;
                pending := None;
                committed_end := log.C.pos
            | _ -> pending := None)
        | (Ddl _ | Row _) as r -> (
            match !pending with
            | Some (s, revs) -> pending := Some (s, r :: revs)
            | None -> () (* record outside a group: ignore *)));
        go ()
  in
  go ();
  { committed_end = !committed_end; redo_records = !redo; statements = !stmts }
