(* The record format every checksummed byte of the system shares, and
   the stable-storage representation of the consistency-control
   ensemble built on it.

   The protocols require each site to persist (operation number, version
   number, partition set) across crashes and to ship it across the
   network unaltered — a copy that forgot or garbled its partition set
   could neither vote nor recover safely.  Every record that carries that
   state is sealed the same way:

       len:u32 | magic (4 bytes) | adler32:u32 | body

   Integers are little-endian fixed width; the checksum covers the body,
   so torn or corrupted records are detected rather than trusted.  Wire
   frames, oplog records and shard-log records are sealed records; the
   ensemble record and the rids sidecar are sealed records without the
   length prefix (their length is the file's).  Logs are runs of sealed
   records, walked by {!walk_log}. *)

let magic = "DVT1"

let encoded_size = 4 + 4 + 8 + 8 + 8

let max_record = 16 * 1024 * 1024

exception Bad of string
exception Corrupt = Bad

(* Adler-32 (RFC 1950): simple, fast, adequate for torn-write detection. *)
let adler32 bytes ~off ~len =
  let modulus = 65521 in
  let a = ref 1 and b = ref 0 in
  for i = off to off + len - 1 do
    a := (!a + Char.code (Bytes.get bytes i)) mod modulus;
    b := (!b + !a) mod modulus
  done;
  Int32.logor
    (Int32.shift_left (Int32.of_int !b) 16)
    (Int32.of_int !a)

(* --- writer ---------------------------------------------------------- *)

let add_u8 b v = Buffer.add_char b (Char.unsafe_chr (v land 0xff))
let add_u16 b v = Buffer.add_uint16_le b v
let add_u32 b v = Buffer.add_int32_le b (Int32.of_int v)
let add_u64 b v = Buffer.add_int64_le b (Int64.of_int v)
let add_bool b v = add_u8 b (if v then 1 else 0)

let add_key b k =
  if String.length k > 0xffff then invalid_arg "Codec: key longer than 65535 bytes";
  add_u16 b (String.length k);
  Buffer.add_string b k

let add_blob b s =
  add_u32 b (String.length s);
  Buffer.add_string b s

let add_option b add = function
  | None -> add_u8 b 0
  | Some v ->
      add_u8 b 1;
      add b v

let add_list b add xs =
  add_u32 b (List.length xs);
  List.iter (add b) xs

let seal ~magic fill =
  let b = Buffer.create 128 in
  add_u32 b 0 (* length slot *);
  Buffer.add_string b magic;
  add_u32 b 0 (* checksum slot *);
  fill b;
  let frame = Buffer.to_bytes b in
  let len = Bytes.length frame - 4 in
  Bytes.set_int32_le frame 0 (Int32.of_int len);
  Bytes.set_int32_le frame 8 (adler32 frame ~off:12 ~len:(len - 8));
  Bytes.unsafe_to_string frame

(* --- cursor ------------------------------------------------------------

   Every read is bounds-checked against the record's end, so a malformed
   length field turns into [Bad], never an exception from [Bytes]. *)

type cursor = { data : Bytes.t; mutable pos : int; stop : int }

let cursor s = { data = Bytes.unsafe_of_string s; pos = 0; stop = String.length s }

let need c n = if n > c.stop - c.pos then raise (Bad "record truncated")

let u8 c =
  need c 1;
  let v = Bytes.get_uint8 c.data c.pos in
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

let key c = str c (u16 c)
let blob c = str c (u32 c)
let bool c = match u8 c with 0 -> false | 1 -> true | _ -> raise (Bad "bad boolean")

let option c read =
  match u8 c with 0 -> None | 1 -> Some (read c) | _ -> raise (Bad "bad option tag")

(* Every element takes at least one byte, so a count past the bytes left
   is damage — and never a huge allocation. *)
let list c read =
  let n = u32 c in
  if n > c.stop - c.pos then raise (Bad "count out of range");
  List.init n (fun _ -> read c)

let site_set c =
  let mask = u64 c in
  if mask land lnot (Site_set.to_int (Site_set.universe Site_set.max_sites)) <> 0 then
    raise (Bad "partition mask has illegal bits");
  Site_set.of_int_unsafe mask

let finish c = if c.pos <> c.stop then raise (Bad "trailing garbage")

let open_sealed ~magic data ~off ~len =
  if len < 8 then raise (Bad "record too short");
  if not (Int32.equal (Bytes.get_int32_le data off) (String.get_int32_le magic 0)) then
    raise (Bad "bad magic");
  if not (Int32.equal (Bytes.get_int32_le data (off + 4))
            (adler32 data ~off:(off + 8) ~len:(len - 8)))
  then raise (Bad "checksum mismatch");
  { data; pos = off + 8; stop = off + len }

let unseal ~magic read data ~off ~len =
  match
    let c = open_sealed ~magic data ~off ~len in
    let v = read c in
    finish c;
    v
  with
  | v -> Ok v
  | exception Bad reason -> Error reason

(* --- log walker ------------------------------------------------------ *)

type 'a walk = { frames : 'a option list; ragged : bool; valid_prefix : int }

(* Frames whose length prefix is intact are decoded on their own, so the
   walk resumes at the next frame after a damaged one; an implausible
   length or a partial frame ends it (we cannot resynchronize without
   trusting damaged bytes).  [valid_prefix] stops at the first damaged
   frame or at that structural end: a reader may cut a log back to it
   before appending, since appending past a partial frame would make the
   new records unreadable. *)
let walk_log ~magic decode data =
  let raw = Bytes.unsafe_of_string data in
  let total = Bytes.length raw in
  let rec go pos frames valid =
    let len =
      if pos + 4 > total then 0 else Int32.to_int (Bytes.get_int32_le raw pos) land 0xFFFFFFFF
    in
    if len = 0 || len > max_record || pos + 4 + len > total then
      { frames = List.rev frames; ragged = pos < total; valid_prefix = valid }
    else
      let frame = Result.to_option (unseal ~magic decode raw ~off:(pos + 4) ~len) in
      let next = pos + 4 + len in
      go next (frame :: frames) (if valid = pos && Option.is_some frame then next else valid)
  in
  go 0 [] 0

(* --- the ensemble record --------------------------------------------- *)

let encode_replica replica =
  let buffer = Bytes.create encoded_size in
  Bytes.blit_string magic 0 buffer 0 4;
  Bytes.set_int64_le buffer 8 (Int64.of_int (Replica.op_no replica));
  Bytes.set_int64_le buffer 16 (Int64.of_int (Replica.version replica));
  Bytes.set_int64_le buffer 24 (Int64.of_int (Site_set.to_int (Replica.partition replica)));
  (* Checksum over the payload (everything after the checksum field). *)
  Bytes.set_int32_le buffer 4 (adler32 buffer ~off:8 ~len:(encoded_size - 8));
  Bytes.to_string buffer

let decode_replica data =
  if String.length data <> encoded_size then
    raise (Bad (Printf.sprintf "expected %d bytes, got %d" encoded_size
                  (String.length data)));
  let c = open_sealed ~magic (Bytes.unsafe_of_string data) ~off:0 ~len:encoded_size in
  let op_no = u64 c in
  let version = u64 c in
  Replica.make ~op_no ~version ~partition:(site_set c)

(* Total variants: corruption as data, not control flow.  Recovery code
   paths (and fuzzers) want to inspect a bad record without wrapping every
   call in an exception handler. *)
let decode_result data =
  match decode_replica data with
  | replica -> Ok replica
  | exception Bad reason -> Error reason

(* Durable atomic replace.  Write-then-rename alone is atomic with
   respect to crashes of the *writer*, but not to power loss: the rename
   can reach the journal while the temp file's bytes are still in the
   page cache, leaving a zero-length or torn file after the crash.  The
   full discipline is: flush the data (fsync the temp file), then make
   the name switch durable (fsync the containing directory after the
   rename).  A crash at any point leaves either the complete old record
   or the complete new one.

   Every storage call goes through [vfs] so a fault-injecting
   implementation can strike any single operation of the discipline. *)
let write_file_atomic ?(vfs = Vfs.real) ?(fsync = true) ~path data =
  let tmp = path ^ ".tmp" in
  let file = vfs.Vfs.create tmp in
  Fun.protect
    ~finally:(fun () -> file.Vfs.close ())
    (fun () ->
      let bytes = Bytes.unsafe_of_string data in
      let len = Bytes.length bytes in
      let written = ref 0 in
      while !written < len do
        written := !written + file.Vfs.write bytes !written (len - !written)
      done;
      if fsync then file.Vfs.fsync ());
  vfs.Vfs.rename ~src:tmp ~dst:path;
  if fsync then vfs.Vfs.fsync_dir (Filename.dirname path)

let read_file ?(vfs = Vfs.real) ~path () = vfs.Vfs.read path

let read_file_result ?vfs ~path () =
  match read_file ?vfs ~path () with
  | data -> Ok data
  | exception Sys_error reason -> Error reason

(* Persist / restore through plain files. *)
let save_replica ?vfs ~path replica =
  write_file_atomic ?vfs ~path (encode_replica replica)

let load_replica ?vfs ~path () = decode_replica (read_file ?vfs ~path ())

let load_result ?vfs ~path () =
  match load_replica ?vfs ~path () with
  | replica -> Ok replica
  | exception Bad reason -> Error reason
  | exception Sys_error reason -> Error reason
