(** The durable data directory: manifest, generation-numbered snapshots
    and write-ahead logs, checkpointing and crash recovery.

    Layout of a data directory (conventionally [name.xqdb/]):

    {v
      MANIFEST              "xqdb-format 1\ngeneration N\n"
      snapshot.N.pages      CRC-framed snapshot (absent for generation 0)
      wal.N.log             the live write-ahead log
    v}

    The MANIFEST names the live generation; everything else is garbage
    from a crashed checkpoint and is removed on open. A checkpoint writes
    and fsyncs [snapshot.N+1.pages] (a full catalog image), then
    atomically publishes it by rewriting the MANIFEST via tmp file,
    fsync and rename, then starts a fresh [wal.N+1.log]. A crash at any
    point leaves either the old generation fully live or the new one
    fully live — never a mix.

    Recovery on {!open_db}: load the live snapshot (empty database if
    none), then {!Wal.replay} the live log — committed statement groups
    are re-applied (row redo records through [Table.apply_jop], DDL by
    re-executing the statement text), the torn/uncommitted tail is
    truncated — and the log is reopened for appending at the committed
    end.

    The fault points ["checkpoint.begin"] and ["checkpoint.end"] bracket
    the checkpoint's danger zone (before any new-generation file exists /
    after the snapshot is complete but before the MANIFEST rename). *)

let format_version = 1

let format_error fmt =
  Format.kasprintf
    (fun m -> Xdm.Xerror.raise_err "XQDB0005" "%s" m)
    fmt

type t = {
  data_dir : string;
  sync : bool;  (** fsync the WAL at every commit *)
  count : string -> unit;  (** Xprof counter hook *)
  mutable gen : int;  (** live generation (MANIFEST) *)
  mutable wal : Wal.t;
  mutable seq : int;  (** statement sequence for WAL groups *)
  mutable active : bool;  (** inside a WAL group: journal records flow *)
  mutable closed : bool;
}

let no_count (_ : string) = ()
let data_dir t = t.data_dir
let generation t = t.gen

(* ------------------------------------------------------------------ *)
(* Paths & manifest                                                     *)
(* ------------------------------------------------------------------ *)

let manifest_path dir = Filename.concat dir "MANIFEST"
let snapshot_path dir gen = Filename.concat dir (Printf.sprintf "snapshot.%d.pages" gen)
let wal_path dir gen = Filename.concat dir (Printf.sprintf "wal.%d.log" gen)

let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      (try Unix.fsync fd with Unix.Unix_error _ -> ());
      (try Unix.close fd with Unix.Unix_error _ -> ())

let read_manifest dir : int =
  let path = manifest_path dir in
  let text =
    match open_in_bin path with
    | exception Sys_error _ -> format_error "%s: cannot read MANIFEST" dir
    | ic ->
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
  in
  match String.split_on_char '\n' text with
  | fmt :: gen :: _ -> (
      (match String.split_on_char ' ' (String.trim fmt) with
      | [ "xqdb-format"; v ] ->
          let v = try int_of_string v with Failure _ -> -1 in
          if v <> format_version then
            format_error
              "%s: data directory format version %d, this build reads %d" dir
              v format_version
      | _ -> format_error "%s: not an xqdb data directory (bad MANIFEST)" dir);
      match String.split_on_char ' ' (String.trim gen) with
      | [ "generation"; n ] -> (
          match int_of_string_opt n with
          | Some n when n >= 0 -> n
          | _ -> format_error "%s: bad generation in MANIFEST" dir)
      | _ -> format_error "%s: bad generation in MANIFEST" dir)
  | _ -> format_error "%s: not an xqdb data directory (bad MANIFEST)" dir

(** Publish [gen] atomically: write and fsync a tmp file, rename it over
    MANIFEST, fsync the directory. Without the file fsync a power loss
    could leave the rename pointing at an empty MANIFEST. *)
let write_manifest dir gen =
  let tmp = Filename.concat dir "MANIFEST.tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      Printf.fprintf oc "xqdb-format %d\ngeneration %d\n" format_version gen;
      flush oc;
      Unix.fsync (Unix.descr_of_out_channel oc));
  Sys.rename tmp (manifest_path dir);
  fsync_dir dir

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(** Resolve the live generation of [data_dir], initializing a fresh
    directory (generation 0) when it is missing or empty. A non-empty
    directory without a MANIFEST is refused — it is not ours. *)
let init_dir data_dir : int =
  if not (Sys.file_exists data_dir) then mkdir_p data_dir
  else if not (Sys.is_directory data_dir) then
    format_error "%s: not a directory" data_dir;
  if Sys.file_exists (manifest_path data_dir) then read_manifest data_dir
  else if Sys.readdir data_dir = [||] then begin
    write_manifest data_dir 0;
    0
  end
  else format_error "%s: not an xqdb data directory (no MANIFEST)" data_dir

(** Remove snapshot/WAL files of any generation other than [gen] —
    leftovers of a checkpoint that crashed before (or after) publishing. *)
let cleanup_orphans data_dir gen =
  Array.iter
    (fun name ->
      let stale prefix suffix =
        if String.starts_with ~prefix name then
          match
            Filename.chop_suffix_opt ~suffix
              (String.sub name (String.length prefix)
                 (String.length name - String.length prefix))
          with
          | Some n -> (
              match int_of_string_opt n with Some g -> g <> gen | None -> false)
          | None -> false
        else false
      in
      if
        stale "snapshot." ".pages" || stale "wal." ".log"
        || name = "MANIFEST.tmp"
      then try Sys.remove (Filename.concat data_dir name) with Sys_error _ -> ())
    (try Sys.readdir data_dir with Sys_error _ -> [||])

(* ------------------------------------------------------------------ *)
(* Open & recover                                                       *)
(* ------------------------------------------------------------------ *)

let open_db ?(sync = true) ?(count = no_count) ~data_dir ~mk ~apply () =
  try
    let gen = init_dir data_dir in
    cleanup_orphans data_dir gen;
    let snap = snapshot_path data_dir gen in
    let db, xindexes, rindexes =
      if Sys.file_exists snap then Wal.Snapshot.load ~path:snap ()
      else (Storage.Database.create (), [], [])
    in
    let ctx = mk db xindexes rindexes in
    let wpath = wal_path data_dir gen in
    let res = Wal.replay ~apply:(apply ctx) wpath in
    let fresh = not (Sys.file_exists wpath) in
    let wal = Wal.open_log ~sync ~count ~keep:res.Wal.committed_end wpath in
    (* a log this call created needs its directory entry made durable *)
    if fresh then fsync_dir data_dir;
    let t =
      {
        data_dir;
        sync;
        count;
        gen;
        wal;
        seq = res.Wal.statements;
        active = false;
        closed = false;
      }
    in
    (t, ctx, res.Wal.redo_records)
  with Unix.Unix_error (e, fn, arg) ->
    format_error "%s: %s(%s): %s" data_dir fn arg (Unix.error_message e)

(* ------------------------------------------------------------------ *)
(* Statement groups & journaling                                        *)
(* ------------------------------------------------------------------ *)

let statement t ?ddl (f : unit -> 'a) : 'a =
  t.seq <- t.seq + 1;
  let seq = t.seq in
  Wal.append t.wal (Wal.Begin seq);
  t.active <- true;
  match f () with
  | v ->
      t.active <- false;
      (match ddl with
      | Some text -> Wal.append t.wal (Wal.Ddl text)
      | None -> ());
      Wal.commit t.wal seq;
      v
  | exception ex ->
      (* the group is left uncommitted: replay skips it, mirroring the
         in-memory per-statement undo rollback that [f] already ran *)
      t.active <- false;
      raise ex

(* -- explicit transactions: one WAL group spanning many statements -- *)

(** Open a transaction-wide WAL group. Every DML statement the engine
    runs until {!txn_commit}/{!txn_abort} journals its redo records
    into this single group, so recovery applies the transaction all or
    nothing — the same abandoned-group semantics Wal.replay already
    gives a crashed single statement. Caller holds the engine's writer
    slot, so no other group can interleave. *)
let txn_begin t =
  t.seq <- t.seq + 1;
  Wal.append t.wal (Wal.Begin t.seq);
  t.active <- true

(** Commit point of the transaction: append the Commit record and (in
    sync mode) fsync. A crash strictly before this call recovers to the
    transaction never having happened; after it, to the transaction
    fully applied. *)
let txn_commit t =
  t.active <- false;
  Wal.commit t.wal t.seq

(** Abort: stop journaling and leave the group uncommitted — replay
    abandons it when the next group begins (or at the log's end). The
    in-memory undo rollback is the engine's job. *)
let txn_abort t = t.active <- false

(** Wire [tbl]'s row journal into the WAL. Records flow only inside a
    statement group (recovery replay and undo rollback stay silent). *)
let journal_table t (tbl : Storage.Table.t) =
  Storage.Table.set_journal tbl
    (Some
       (fun op ->
         if t.active && not t.closed then
           Wal.append t.wal (Wal.Row (tbl.Storage.Table.name, op))))

(* ------------------------------------------------------------------ *)
(* Checkpoint & shutdown                                                *)
(* ------------------------------------------------------------------ *)

let checkpoint t ~db ~xindexes ~rindexes =
  Faultinject.hit "checkpoint.begin";
  let next = t.gen + 1 in
  Wal.Snapshot.save ~path:(snapshot_path t.data_dir next) db xindexes rindexes;
  Faultinject.hit "checkpoint.end";
  (* create the next log before publishing, so write_manifest's directory
     fsync also covers its entry; a crash in between leaves an orphan log
     that the next open sweeps *)
  let nw = Wal.open_log ~sync:t.sync ~count:t.count (wal_path t.data_dir next) in
  (* the rename is the commit point of the checkpoint *)
  (try write_manifest t.data_dir next
   with e ->
     Wal.close nw;
     raise e);
  Wal.close t.wal;
  let old = t.gen in
  t.wal <- nw;
  t.gen <- next;
  List.iter
    (fun p -> try Sys.remove p with Sys_error _ -> ())
    [ snapshot_path t.data_dir old; wal_path t.data_dir old ]

let close t =
  if not t.closed then begin
    t.closed <- true;
    Wal.sync_log t.wal;
    Wal.close t.wal
  end

(** Abandon the handle the way a crash would: drop the file descriptors
    without syncing anything. In-memory state is left untouched for the
    torture tests to compare against. *)
let simulate_crash t =
  if not t.closed then begin
    t.closed <- true;
    Wal.close t.wal
  end
