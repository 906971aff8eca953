(* Per-site audit journal: the append-only operation log, plus the
   canonical encoding of the replicated file's entries.  Log records are
   {!Codec} sealed records (magic "DVO1") walked by {!Codec.walk_log}, so
   a torn tail is detected and dropped rather than trusted.  Every byte
   flows through a {!Vfs}, so the fault-injection layer can strike any
   single storage operation.  The objects' own state lives in
   {!Dynvote_shard.Shard_store}. *)

open Codec

let site_dir ~dir site = Filename.concat dir (Printf.sprintf "site-%d" site)

let ensure_site_dir ~dir site =
  let path = site_dir ~dir site in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  (try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  path

let oplog_path ~dir site = Filename.concat (site_dir ~dir site) "oplog.dvl"
let amnesia_path ~dir site = Filename.concat (site_dir ~dir site) "amnesiac"

(* --- the file's entries blob ---------------------------------------- *)

let encode_entries entries =
  let b = Buffer.create 256 in
  add_list b
    (fun b (k, v) ->
      add_key b k;
      add_blob b v)
    (List.sort (fun (a, _) (c, _) -> String.compare a c) entries);
  Buffer.contents b

let decode_entries data =
  let c = cursor data in
  try
    let entries = list c (fun c -> let k = key c in (k, blob c)) in
    finish c;
    entries
  with Bad reason -> invalid_arg ("Persist.decode_entries: " ^ reason)

(* --- operation log -------------------------------------------------- *)

let log_magic = "DVO1"

type record =
  | Log_commit of {
      seq : int;
      key : string;
      op_no : int;
      version : int;
      partition : Site_set.t;
      rid : int;
    }
  | Log_intent of { seq : int; key : string; content : string }
  | Log_outcome of {
      seq : int;
      key : string;
      kind : [ `Read | `Write | `Recover ];
      granted : bool;
      content : string option;
      rid : int;
    }

let seq_of = function
  | Log_commit { seq; _ } | Log_intent { seq; _ } | Log_outcome { seq; _ } -> seq

let kind_code = function `Read -> 0 | `Write -> 1 | `Recover -> 2

let encode_record record =
  seal ~magic:log_magic (fun b ->
      match record with
      (* Tags 0-2 belonged to a retired record family and are never reused. *)
      | Log_commit { seq; key; op_no; version; partition; rid } ->
          add_u8 b 3;
          add_u64 b seq;
          add_key b key;
          add_u64 b op_no;
          add_u64 b version;
          add_u64 b (Site_set.to_int partition);
          add_u64 b rid
      | Log_intent { seq; key; content } ->
          add_u8 b 4;
          add_u64 b seq;
          add_key b key;
          add_blob b content
      | Log_outcome { seq; key; kind; granted; content; rid } ->
          add_u8 b 5;
          add_u64 b seq;
          add_key b key;
          add_u8 b (kind_code kind);
          add_bool b granted;
          add_option b add_blob content;
          add_u64 b rid)

(* An open append channel over the vfs: each record is written through
   in full (straight to the OS, no userland buffering), so a process
   kill leaves at worst one partial frame at the tail.  Like the old
   out_channel discipline, appends are not fsynced — a power cut may
   truncate the unsynced suffix, which replay tolerates as a torn
   tail. *)
type log = { file : Vfs.file; path : string }

let open_log ?(vfs = Vfs.real) ~path () = { file = vfs.Vfs.append path; path }

let append log record =
  let frame = Bytes.unsafe_of_string (encode_record record) in
  let len = Bytes.length frame in
  let written = ref 0 in
  while !written < len do
    written := !written + log.file.Vfs.write frame !written (len - !written)
  done

let log_path log = log.path
let close_log log = log.file.Vfs.close ()

let decode_record c =
  match u8 c with
  | 3 ->
      let seq = u64 c in
      let key = key c in
      let op_no = u64 c in
      let version = u64 c in
      let mask = u64 c in
      let rid = u64 c in
      Log_commit { seq; key; op_no; version; partition = Site_set.of_int_unsafe mask; rid }
  | 4 ->
      let seq = u64 c in
      let key = key c in
      Log_intent { seq; key; content = blob c }
  | 5 ->
      let seq = u64 c in
      let key = key c in
      let kind =
        match u8 c with
        | 0 -> `Read
        | 1 -> `Write
        | 2 -> `Recover
        | _ -> raise (Bad "bad kind")
      in
      let granted = bool c in
      let content = option c blob in
      Log_outcome { seq; key; kind; granted; content; rid = u64 c }
  | _ -> raise (Bad "unknown record tag")

type scan = { records : record list; torn : bool; corrupt : int; valid_prefix : int }

(* A killed node leaves at worst one partial frame at the tail — that is
   the only corruption an honest crash can produce, and replay tolerates
   it as [torn].  A checksum-failing record *followed by intact ones* is
   a different animal entirely: the tail proves the log kept growing
   past the damage, so bytes were altered in place (bit rot, a lying
   disk) and the history has a hole.  Those records are counted in
   [corrupt] so recovery can refuse to trust the site instead of
   silently replaying around the gap.  A booting node may cut a
   purely-torn log back to [valid_prefix] before appending over it. *)
let scan_log ?vfs ~path () =
  match read_file_result ?vfs ~path () with
  | Error _ -> { records = []; torn = false; corrupt = 0; valid_prefix = 0 }
  | Ok data ->
      let walk = walk_log ~magic:log_magic decode_record data in
      (* Bad frames at the very end are the torn tail; bad frames with
         an intact record after them are mid-log corruption. *)
      let rec drop_tail = function None :: rest -> drop_tail rest | frames -> frames in
      let interior = drop_tail (List.rev walk.frames) in
      let records, corrupt =
        List.fold_left
          (fun (records, corrupt) -> function
            | Some r -> (r :: records, corrupt)
            | None -> (records, corrupt + 1))
          ([], 0) interior
      in
      let torn_tail = List.compare_lengths interior walk.frames < 0 in
      { records; torn = walk.ragged || torn_tail; corrupt; valid_prefix = walk.valid_prefix }

let read_log ~path =
  let scan = scan_log ~path () in
  (scan.records, scan.torn || scan.corrupt > 0)
