(* Append-only shard logs + an in-memory spine of packed latest
   records.  Log records are {!Codec} sealed records (magic "DVS1")
   walked by {!Codec.walk_log}, like the oplog, so the torn-tail /
   mid-log-corruption forensics carry over: a partial frame at the end
   of a shard is honest crash damage and is cut off before reopening for
   append; a bad record with intact ones after it is bit rot and is
   surfaced in [scan_info.corrupt] for the node to fence on.

   Record types inside the frame:

     0  keyed state: key | op_no | version | partition | data_version |
        value(unchanged / set) | rid
     1  rid summary: the per-client applied-request table a compaction
        snapshots at the head of the rewritten log, so dropping
        superseded records never drops exactly-once memory. *)

open Codec

let magic = "DVS1"

type state = {
  op_no : int;
  version : int;
  partition : Site_set.t;
  data_version : int;
  value : string option;
}

type scan_info = {
  keys : int;
  torn_shards : int;
  corrupt : int;
  rids : (int * int) list;
}

(* --- stable key -> shard hash (FNV-1a, independent of Hashtbl.hash) --- *)

let shard_of_key ~shards key =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001b3L)
    key;
  (Int64.to_int !h land max_int) mod shards

(* --- spine packing ---------------------------------------------------

   One packed string per key: four u64 fields then a value tag (1 =
   absent, 2 = present, value bytes to the end).  Undecoded residency is
   the point — a million keys are a million small strings, and decoding
   (allocation of the state record and Site_set) happens only for the
   LRU-resident working set in {!Shard_map}. *)

let pack st =
  let vlen = match st.value with None -> 0 | Some v -> String.length v in
  let b = Bytes.create (33 + vlen) in
  Bytes.set_int64_le b 0 (Int64.of_int st.op_no);
  Bytes.set_int64_le b 8 (Int64.of_int st.version);
  Bytes.set_int64_le b 16 (Int64.of_int (Site_set.to_int st.partition));
  Bytes.set_int64_le b 24 (Int64.of_int st.data_version);
  (match st.value with
  | None -> Bytes.set b 32 '\001'
  | Some v ->
      Bytes.set b 32 '\002';
      Bytes.blit_string v 0 b 33 vlen);
  Bytes.unsafe_to_string b

let unpack packed =
  let b = Bytes.unsafe_of_string packed in
  {
    op_no = Int64.to_int (Bytes.get_int64_le b 0);
    version = Int64.to_int (Bytes.get_int64_le b 8);
    partition = Site_set.of_int_unsafe (Int64.to_int (Bytes.get_int64_le b 16));
    data_version = Int64.to_int (Bytes.get_int64_le b 24);
    value =
      (match Bytes.get b 32 with
      | '\001' -> None
      | _ -> Some (String.sub packed 33 (String.length packed - 33)));
  }

(* --- record framing -------------------------------------------------- *)

type value_enc = Unchanged | Set of string option

let add_rid_pairs b pairs =
  add_list b
    (fun b (client, req) ->
      add_u32 b client;
      add_u64 b req)
    pairs

let rid_pairs c = list c (fun c -> let client = u32 c in (client, u64 c))

let encode_state_record ~key ~rid ~value_enc st =
  seal ~magic (fun b ->
      add_u8 b 0;
      add_key b key;
      add_u64 b st.op_no;
      add_u64 b st.version;
      add_u64 b (Site_set.to_int st.partition);
      add_u64 b st.data_version;
      (match value_enc with
      | Unchanged -> add_u8 b 0
      | Set None -> add_u8 b 1
      | Set (Some v) ->
          add_u8 b 2;
          add_blob b v);
      add_u64 b rid)

let encode_rid_record pairs =
  seal ~magic (fun b ->
      add_u8 b 1;
      add_rid_pairs b pairs)

type record =
  | R_state of { key : string; rid : int; value_enc : value_enc; st : state }
      (* [st.value] is a placeholder when [value_enc = Unchanged]; the
         scan resolves it against the previous spine entry *)
  | R_rids of (int * int) list

let decode_record c =
  match u8 c with
  | 0 ->
      let key = key c in
      let op_no = u64 c in
      let version = u64 c in
      let partition = Site_set.of_int_unsafe (u64 c) in
      let data_version = u64 c in
      let value_enc =
        match u8 c with
        | 0 -> Unchanged
        | 1 -> Set None
        | 2 -> Set (Some (blob c))
        | _ -> raise (Bad "bad value tag")
      in
      let rid = u64 c in
      R_state
        { key; rid; value_enc; st = { op_no; version; partition; data_version; value = None } }
  | 1 -> R_rids (rid_pairs c)
  | _ -> raise (Bad "unknown record type")

(* --- the store ------------------------------------------------------- *)

type shard = {
  path : string;
  mutable file : Vfs.file option;
  mutable records : int;  (* frames in the log *)
  mutable live : int;  (* distinct keys mapping here *)
  mutable dirty : bool;  (* appended to since the last fsync *)
}

type t = {
  vfs : Vfs.t;
  durable : bool;
  sdir : string;
  rids_path : string;
  shards : shard array;
  spine : (string, string) Hashtbl.t;  (* key -> packed latest state *)
  rids : (int, int) Hashtbl.t;  (* client -> max applied req *)
  mutable compactions : int;
}

let shards_dir ~dir ~site =
  Filename.concat
    (Filename.concat dir (Printf.sprintf "site-%d" site))
    "shards"

let shard_path sdir i = Filename.concat sdir (Printf.sprintf "shard-%d.dvl" i)

let note_rid rids rid =
  if rid <> 0 then begin
    let client = rid lsr 32 and req = rid land 0xFFFFFFFF in
    match Hashtbl.find_opt rids client with
    | Some seen when seen >= req -> ()
    | _ -> Hashtbl.replace rids client req
  end

let merge_rid_pairs rids pairs =
  List.iter
    (fun (client, req) ->
      match Hashtbl.find_opt rids client with
      | Some seen when seen >= req -> ()
      | _ -> Hashtbl.replace rids client req)
    pairs

(* Fold one shard log into the spine, resolving "unchanged" values
   against the previous record for the key.  Returns whether the shard
   is torn, its corrupt frame count, the state records applied and the
   valid prefix.  Every damaged frame but the last counts as mid-log
   corruption.  That over-counts one case — several trailing damaged
   frames — which a single append cannot produce anyway; honest crashes
   tear at most one frame. *)
let scan_shard_file ~read spine rids path =
  match read path with
  | exception Sys_error _ -> (false, 0, 0, 0)
  | data ->
      let walk = walk_log ~magic decode_record data in
      let applied = ref 0 and damaged = ref 0 in
      List.iter
        (function
          | Some (R_state { key; rid; value_enc; st }) ->
              incr applied;
              note_rid rids rid;
              let value =
                match value_enc with
                | Set v -> v
                | Unchanged -> (
                    match Hashtbl.find_opt spine key with
                    | Some packed -> (unpack packed).value
                    | None -> None)
              in
              Hashtbl.replace spine key (pack { st with value })
          | Some (R_rids pairs) -> merge_rid_pairs rids pairs
          | None -> incr damaged)
        walk.frames;
      (walk.ragged || !damaged > 0, max 0 (!damaged - 1), !applied, walk.valid_prefix)

(* The sidecar is a sealed record without the length prefix; a damaged
   one contributes nothing. *)
let decode_rids_file data =
  unseal ~magic rid_pairs (Bytes.unsafe_of_string data) ~off:0 ~len:(String.length data)
  |> Result.value ~default:[]

let encode_rids_file pairs =
  let frame = seal ~magic (fun b -> add_rid_pairs b pairs) in
  String.sub frame 4 (String.length frame - 4)

let mkdir_p path =
  let rec go path =
    if not (Sys.file_exists path) then begin
      go (Filename.dirname path);
      try Sys.mkdir path 0o755 with Sys_error _ -> ()
    end
  in
  go path

let rid_list t =
  List.sort compare (Hashtbl.fold (fun c r acc -> (c, r) :: acc) t.rids [])

let open_store ?(vfs = Vfs.real) ?(durable = true) ~dir ~site ~shards () =
  if shards < 1 then invalid_arg "Shard_store.open_store: need at least one shard";
  let sdir = shards_dir ~dir ~site in
  mkdir_p sdir;
  let spine = Hashtbl.create 1024 in
  let rids = Hashtbl.create 16 in
  let torn_shards = ref 0 in
  let corrupt = ref 0 in
  let shard_arr =
    Array.init shards (fun i ->
        let path = shard_path sdir i in
        let torn, bad, applied, valid_prefix =
          scan_shard_file ~read:vfs.Vfs.read spine rids path
        in
        if torn then begin
          incr torn_shards;
          (* Cut the partial frame off before appending over it — a new
             record after a torn one would read as mid-log corruption on
             the next scan.  Only when nothing mid-log is damaged: a
             corrupt log is evidence and is left untouched. *)
          if bad = 0 then vfs.Vfs.truncate path valid_prefix
        end;
        corrupt := !corrupt + bad;
        { path; file = None; records = applied; live = 0; dirty = false })
  in
  (* Live counts per shard, for the compaction trigger. *)
  Hashtbl.iter
    (fun key _ ->
      let s = shard_arr.(shard_of_key ~shards key) in
      s.live <- s.live + 1)
    spine;
  (* The sidecar table (fetch-imported rids) merges over the log fold. *)
  (match vfs.Vfs.read (Filename.concat sdir "rids.dvr") with
  | exception Sys_error _ -> ()
  | data -> merge_rid_pairs rids (decode_rids_file data));
  let t =
    {
      vfs;
      durable;
      sdir;
      rids_path = Filename.concat sdir "rids.dvr";
      shards = shard_arr;
      spine;
      rids;
      compactions = 0;
    }
  in
  ( t,
    {
      keys = Hashtbl.length spine;
      torn_shards = !torn_shards;
      corrupt = !corrupt;
      rids = rid_list t;
    } )

let shard_count t = Array.length t.shards
let key_count t = Hashtbl.length t.spine

let lookup t key =
  match Hashtbl.find_opt t.spine key with
  | None -> None
  | Some packed -> Some (unpack packed)

let file_of t shard =
  match shard.file with
  | Some f -> f
  | None ->
      let f = t.vfs.Vfs.append shard.path in
      shard.file <- Some f;
      f

let append_frame t shard frame =
  let file = file_of t shard in
  let bytes = Bytes.unsafe_of_string frame in
  let len = Bytes.length bytes in
  let written = ref 0 in
  while !written < len do
    written := !written + file.Vfs.write bytes !written (len - !written)
  done;
  shard.records <- shard.records + 1;
  shard.dirty <- true

(* Rewrite one shard with just the latest record per key, headed by the
   applied-request table so exactly-once memory survives the dropped
   history.  Atomic replace: a crash leaves the old log or the new one,
   both valid.

   The rewrite always runs the full durability discipline (data fsync
   before the rename, directory fsync after), even for stores opened
   [durable:false]: the rename replaces the only copy of the key
   history, and a rename whose source was never fsynced can be promoted
   by ANY later fsync of the same directory — the rids sidecar's atomic
   replace is one — leaving the shard log durably empty after a power
   cut.  Unsynced appends losing their tail is the non-durable
   trade-off; compaction silently discarding fsynced history is not. *)
let compact t i =
  let shard = t.shards.(i) in
  (match shard.file with
  | Some f ->
      f.Vfs.close ();
      shard.file <- None
  | None -> ());
  let b = Buffer.create 4096 in
  Buffer.add_string b (encode_rid_record (rid_list t));
  let live = ref 0 in
  Hashtbl.iter
    (fun key packed ->
      if shard_of_key ~shards:(Array.length t.shards) key = i then begin
        incr live;
        let st = unpack packed in
        Buffer.add_string b
          (encode_state_record ~key ~rid:0 ~value_enc:(Set st.value) st)
      end)
    t.spine;
  Codec.write_file_atomic ~vfs:t.vfs ~fsync:true ~path:shard.path
    (Buffer.contents b);
  shard.records <- !live + 1;
  shard.live <- !live;
  shard.dirty <- false;
  t.compactions <- t.compactions + 1

let compaction_due shard =
  shard.records >= 1024 && shard.records > 4 * max 1 shard.live

let commit t ~key ~rid st =
  let i = shard_of_key ~shards:(Array.length t.shards) key in
  let shard = t.shards.(i) in
  let prior = Hashtbl.find_opt t.spine key in
  let value_enc =
    match prior with
    | Some packed when (unpack packed).value = st.value -> Unchanged
    | _ -> Set st.value
  in
  append_frame t shard (encode_state_record ~key ~rid ~value_enc st);
  note_rid t.rids rid;
  Hashtbl.replace t.spine key (pack st);
  if prior = None then shard.live <- shard.live + 1;
  if compaction_due shard then compact t i

let fsync t =
  Array.iter
    (fun shard ->
      if shard.dirty then begin
        (match shard.file with Some f -> f.Vfs.fsync () | None -> ());
        shard.dirty <- false
      end)
    t.shards

let save_rids ?fsync t pairs =
  merge_rid_pairs t.rids pairs;
  let fsync = Option.value fsync ~default:t.durable in
  Codec.write_file_atomic ~vfs:t.vfs ~fsync ~path:t.rids_path
    (encode_rids_file (rid_list t))

let iter t f = Hashtbl.iter (fun key packed -> f key (unpack packed)) t.spine

let compactions t = t.compactions
let log_records t = Array.fold_left (fun acc s -> acc + s.records) 0 t.shards

let close t =
  Array.iter
    (fun shard ->
      match shard.file with
      | Some f ->
          (try f.Vfs.close () with Sys_error _ | Vfs.Fault _ -> ());
          shard.file <- None
      | None -> ())
    t.shards

let read_states ~dir ~site =
  let sdir = shards_dir ~dir ~site in
  let spine = Hashtbl.create 256 in
  let rids = Hashtbl.create 16 in
  (match Sys.readdir sdir with
  | exception Sys_error _ -> ()
  | names ->
      let shard_files =
        names |> Array.to_list
        |> List.filter (fun n ->
               String.length n > 6
               && String.sub n 0 6 = "shard-"
               && Filename.check_suffix n ".dvl")
        |> List.sort compare
      in
      List.iter
        (fun name ->
          ignore
            (scan_shard_file ~read:Vfs.real.Vfs.read spine rids
               (Filename.concat sdir name)
              : bool * int * int * int))
        shard_files);
  Hashtbl.fold (fun key packed acc -> (key, unpack packed) :: acc) spine []
