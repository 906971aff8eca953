(* Per-site audit journal: the append-only operation log, plus the
   canonical encoding of the replicated file's entries.  Log records are
   framed and checksummed so a torn tail is detected and dropped rather
   than trusted.  Every byte flows through a {!Vfs}, so the
   fault-injection layer can strike any single storage operation.  The
   objects' own state lives in {!Dynvote_shard.Shard_store}. *)

let site_dir ~dir site = Filename.concat dir (Printf.sprintf "site-%d" site)

let ensure_site_dir ~dir site =
  let path = site_dir ~dir site in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  (try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  path

let oplog_path ~dir site = Filename.concat (site_dir ~dir site) "oplog.dvl"
let amnesia_path ~dir site = Filename.concat (site_dir ~dir site) "amnesiac"

(* --- the file's entries blob ---------------------------------------- *)

let add_u8 b v = Buffer.add_char b (Char.chr (v land 0xff))
let add_u16 b v = Buffer.add_uint16_le b v
let add_u32 b v = Buffer.add_int32_le b (Int32.of_int v)
let add_u64 b v = Buffer.add_int64_le b (Int64.of_int v)

let encode_entries entries =
  let b = Buffer.create 256 in
  let entries = List.sort (fun (a, _) (c, _) -> String.compare a c) entries in
  add_u32 b (List.length entries);
  List.iter
    (fun (k, v) ->
      if String.length k > 0xffff then invalid_arg "Persist: key longer than 65535 bytes";
      add_u16 b (String.length k);
      Buffer.add_string b k;
      add_u32 b (String.length v);
      Buffer.add_string b v)
    entries;
  Buffer.contents b

exception Bad of string

type cursor = { data : Bytes.t; mutable pos : int }

let need c n = if c.pos + n > Bytes.length c.data then raise (Bad "record truncated")

let u8 c =
  need c 1;
  let v = Char.code (Bytes.get c.data c.pos) in
  c.pos <- c.pos + 1;
  v

let u16 c =
  need c 2;
  let v = Bytes.get_uint16_le c.data c.pos in
  c.pos <- c.pos + 2;
  v

let u32 c =
  need c 4;
  let v = Int32.to_int (Bytes.get_int32_le c.data c.pos) land 0xFFFFFFFF in
  c.pos <- c.pos + 4;
  v

let u64 c =
  need c 8;
  let v = Bytes.get_int64_le c.data c.pos in
  c.pos <- c.pos + 8;
  if Int64.compare v 0L < 0 || Int64.compare v (Int64.of_int max_int) > 0 then
    raise (Bad "field out of range");
  Int64.to_int v

let str c len =
  need c len;
  let s = Bytes.sub_string c.data c.pos len in
  c.pos <- c.pos + len;
  s

let decode_entries blob =
  let c = { data = Bytes.of_string blob; pos = 0 } in
  try
    let n = u32 c in
    if n > Bytes.length c.data then raise (Bad "entry count out of range");
    let entries =
      List.init n (fun _ ->
          let k = str c (u16 c) in
          (k, str c (u32 c)))
    in
    if c.pos <> Bytes.length c.data then raise (Bad "trailing garbage");
    entries
  with Bad reason -> invalid_arg ("Persist.decode_entries: " ^ reason)

(* --- operation log -------------------------------------------------- *)

let log_magic = "DVO1"
let max_record = 16 * 1024 * 1024

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

let add_log_key b k =
  if String.length k > 0xffff then invalid_arg "Persist: key longer than 65535 bytes";
  add_u16 b (String.length k);
  Buffer.add_string b k

let encode_record record =
  let b = Buffer.create 64 in
  Buffer.add_string b log_magic;
  add_u32 b 0 (* checksum slot *);
  (match record with
  (* Tags 0-2 belonged to a retired record family and are never reused. *)
  | Log_commit { seq; key; op_no; version; partition; rid } ->
      add_u8 b 3;
      add_u64 b seq;
      add_log_key b key;
      add_u64 b op_no;
      add_u64 b version;
      add_u64 b (Site_set.to_int partition);
      add_u64 b rid
  | Log_intent { seq; key; content } ->
      add_u8 b 4;
      add_u64 b seq;
      add_log_key b key;
      add_u32 b (String.length content);
      Buffer.add_string b content
  | Log_outcome { seq; key; kind; granted; content; rid } ->
      add_u8 b 5;
      add_u64 b seq;
      add_log_key b key;
      add_u8 b (kind_code kind);
      add_u8 b (if granted then 1 else 0);
      (match content with
      | None -> add_u8 b 0
      | Some content ->
          add_u8 b 1;
          add_u32 b (String.length content);
          Buffer.add_string b content);
      add_u64 b rid);
  let body = Buffer.to_bytes b in
  Bytes.set_int32_le body 4 (Codec.checksum body ~off:8 ~len:(Bytes.length body - 8));
  let frame = Bytes.create (4 + Bytes.length body) in
  Bytes.set_int32_le frame 0 (Int32.of_int (Bytes.length body));
  Bytes.blit body 0 frame 4 (Bytes.length body);
  Bytes.to_string frame

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

let decode_record body =
  let c = { data = body; pos = 0 } in
  if str c 4 <> log_magic then raise (Bad "bad magic");
  let stored = Bytes.get_int32_le body 4 in
  c.pos <- 8;
  let computed = Codec.checksum body ~off:8 ~len:(Bytes.length body - 8) in
  if not (Int32.equal stored computed) then raise (Bad "checksum mismatch");
  let record =
    match u8 c with
    | 3 ->
        let seq = u64 c in
        let key = str c (u16 c) in
        let op_no = u64 c in
        let version = u64 c in
        let mask = u64 c in
        let rid = u64 c in
        Log_commit
          { seq; key; op_no; version; partition = Site_set.of_int_unsafe mask; rid }
    | 4 ->
        let seq = u64 c in
        let key = str c (u16 c) in
        Log_intent { seq; key; content = str c (u32 c) }
    | 5 ->
        let seq = u64 c in
        let key = str c (u16 c) in
        let kind =
          match u8 c with
          | 0 -> `Read
          | 1 -> `Write
          | 2 -> `Recover
          | _ -> raise (Bad "bad kind")
        in
        let granted = match u8 c with 0 -> false | 1 -> true | _ -> raise (Bad "bad flag") in
        let content =
          match u8 c with
          | 0 -> None
          | 1 -> Some (str c (u32 c))
          | _ -> raise (Bad "bad content flag")
        in
        let rid = u64 c in
        Log_outcome { seq; key; kind; granted; content; rid }
    | _ -> raise (Bad "unknown record tag")
  in
  if c.pos <> Bytes.length body then raise (Bad "trailing garbage");
  record

type scan = { records : record list; torn : bool; corrupt : int; valid_prefix : int }

(* A killed node leaves at worst one partial frame at the tail — that is
   the only corruption an honest crash can produce, and replay tolerates
   it as [torn].  A checksum-failing record *followed by intact ones* is
   a different animal entirely: the tail proves the log kept growing
   past the damage, so bytes were altered in place (bit rot, a lying
   disk) and the history has a hole.  Those records are counted in
   [corrupt] so recovery can refuse to trust the site instead of
   silently replaying around the gap.

   Frames whose length prefix is intact are skipped and scanning
   resumes at the next frame; an implausible length ends the scan (we
   cannot resynchronize without trusting damaged bytes). *)
let scan_log ?vfs ~path () =
  match Codec.read_file_result ?vfs ~path () with
  | Error _ -> { records = []; torn = false; corrupt = 0; valid_prefix = 0 }
  | Ok data ->
      let raw = Bytes.of_string data in
      let total = Bytes.length raw in
      (* Good records and bad-frame markers, in file order. *)
      let items = ref [] in
      let pos = ref 0 in
      let ragged_tail = ref false in
      (* Byte length of the damage-free prefix: everything before the
         first bad frame (or the structural end of the scan).  A booting
         node may cut a purely-torn log back to this point before
         appending over it — appending *past* a partial frame would make
         the new records unreadable, indistinguishable from mid-log
         corruption on the next scan. *)
      let damaged = ref false in
      let valid_prefix = ref 0 in
      (try
         while !pos < total do
           if !pos + 4 > total then raise Exit;
           let len = Int32.to_int (Bytes.get_int32_le raw !pos) land 0xFFFFFFFF in
           if len <= 0 || len > max_record || !pos + 4 + len > total then raise Exit;
           (match decode_record (Bytes.sub raw (!pos + 4) len) with
           | record ->
               items := `Good record :: !items;
               if not !damaged then valid_prefix := !pos + 4 + len
           | exception Bad _ ->
               items := `Bad :: !items;
               damaged := true);
           pos := !pos + 4 + len
         done
       with Exit -> ragged_tail := true);
      (* Bad frames at the very end are the torn tail; bad frames with
         an intact record after them are mid-log corruption. *)
      let rec split_tail = function
        | `Bad :: rest -> ragged_tail := true; split_tail rest
        | items -> items
      in
      let interior = split_tail !items in
      let records, corrupt =
        List.fold_left
          (fun (records, corrupt) item ->
            match item with
            | `Good r -> (r :: records, corrupt)
            | `Bad -> (records, corrupt + 1))
          ([], 0) interior
      in
      { records; torn = !ragged_tail; corrupt; valid_prefix = !valid_prefix }

let read_log ~path =
  let scan = scan_log ~path () in
  (scan.records, scan.torn || scan.corrupt > 0)
