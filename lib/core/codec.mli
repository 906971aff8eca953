(** The shared record format and the ensemble's stable-storage codec.

    Every checksummed byte of the system is a sealed record,
    [len:u32 | magic | adler32:u32 | body], read back through one
    bounds-checked cursor: wire frames, oplog and shard-log records, the
    rids sidecar and the ensemble record (the last two without the
    length prefix).  Corrupted or torn data raises {!Bad} instead of
    being trusted — forgetting or garbling a partition set would break
    the protocol's safety argument. *)

exception Bad of string
(** Damage found by a reader: truncation, bad magic, checksum mismatch,
    out-of-range fields, trailing garbage. *)

exception Corrupt of string
(** The same exception as {!Bad} under the name the ensemble API uses. *)

val max_record : int
(** Upper bound on a sealed record's length (16 MiB). *)

(** {2 Writer} *)

val add_u8 : Buffer.t -> int -> unit
val add_u16 : Buffer.t -> int -> unit
val add_u32 : Buffer.t -> int -> unit
val add_u64 : Buffer.t -> int -> unit
val add_bool : Buffer.t -> bool -> unit

val add_key : Buffer.t -> string -> unit
(** u16 length, then the bytes.  @raise Invalid_argument past 65535 bytes. *)

val add_blob : Buffer.t -> string -> unit
(** u32 length, then the bytes. *)

val add_option : Buffer.t -> (Buffer.t -> 'a -> unit) -> 'a option -> unit
(** Tag byte 0 for [None]; 1, then the value, for [Some]. *)

val add_list : Buffer.t -> (Buffer.t -> 'a -> unit) -> 'a list -> unit
(** u32 count, then the elements. *)

val seal : magic:string -> (Buffer.t -> unit) -> string
(** [len | magic | adler32 | body], where the function writes the body.
    [magic] is 4 bytes. *)

(** {2 Cursor}

    Every read is bounds-checked: damage raises {!Bad}, never an
    exception from [Bytes]. *)

type cursor

val cursor : string -> cursor
(** Unsealed bytes, read from the start. *)

val u8 : cursor -> int
val u16 : cursor -> int
val u32 : cursor -> int

val u64 : cursor -> int
(** @raise Bad past [max_int]. *)

val str : cursor -> int -> string
val key : cursor -> string
val blob : cursor -> string
val bool : cursor -> bool
val option : cursor -> (cursor -> 'a) -> 'a option
val list : cursor -> (cursor -> 'a) -> 'a list
(** A u32 count, then the elements.  @raise Bad on a count past the
    bytes left. *)

val site_set : cursor -> Site_set.t
(** A u64 partition mask.  @raise Bad on bits past {!Site_set.max_sites}. *)

val finish : cursor -> unit
(** @raise Bad unless every byte was read (trailing garbage). *)

(** {2 Opening sealed records} *)

val unseal :
  magic:string -> (cursor -> 'a) -> Bytes.t -> off:int -> len:int -> ('a, string) result
(** The sealed record at [off, off + len), length prefix excluded:
    verifies the magic and the checksum, then reads the body from byte 8
    with the function, which must consume all of it ({!finish}).  Damage
    comes back as [Error]. *)

(** {2 Logs} *)

type 'a walk = {
  frames : 'a option list;  (** file order; [None] = a damaged frame *)
  ragged : bool;  (** the walk ended at an implausible length or a partial frame *)
  valid_prefix : int;  (** bytes before the first damaged frame or that end *)
}

val walk_log : magic:string -> (cursor -> 'a) -> string -> 'a walk
(** Walk a run of sealed records, {!unseal}ing each.  A frame whose
    length prefix is intact is decoded on its own, so the walk resumes
    after a damaged one. *)

(** {2 The ensemble record} *)

val encoded_size : int
(** Fixed record size in bytes. *)

val encode_replica : Replica.t -> string

val decode_replica : string -> Replica.t
(** @raise Bad on wrong size, bad magic, checksum mismatch or
    out-of-range fields. *)

val decode_result : string -> (Replica.t, string) result
(** Total {!decode_replica}: never raises; [Error] carries the corruption
    reason.  Truncated, bit-flipped and zero-length records all return
    [Error]. *)

val save_replica : ?vfs:Vfs.t -> path:string -> Replica.t -> unit
(** Durable atomic persistence: the record is written to [path ^ ".tmp"],
    fsynced, renamed over [path], and the parent directory is fsynced so
    the rename itself survives power loss.  After a crash at any point a
    reader finds either the complete previous record or the complete new
    one — never a torn or empty file.  (On filesystems that refuse
    directory fsync the rename is as durable as the platform allows.) *)

val load_replica : ?vfs:Vfs.t -> path:string -> unit -> Replica.t
(** @raise Bad as {!decode_replica}; [Sys_error] if unreadable. *)

val load_result : ?vfs:Vfs.t -> path:string -> unit -> (Replica.t, string) result
(** Total {!load_replica}: corruption and I/O failures both come back as
    [Error] — the crash-recovery path must never die on a torn record. *)

(** {2 Whole-file storage}

    The same write-then-rename-with-fsync discipline for every file that
    is replaced rather than appended to (the rids sidecar, a compacted
    shard log), so every persistent artifact shares one durability
    story. *)

val write_file_atomic : ?vfs:Vfs.t -> ?fsync:bool -> path:string -> string -> unit
(** Durable atomic replace of [path] with the given bytes, with the same
    crash guarantee as {!save_replica}.  [~fsync:false] keeps the
    write-then-rename atomicity (a reader never sees a torn file) but
    skips both fsyncs, trading the power-loss guarantee for speed —
    throughput experiments only.  Default [true].  [?vfs] (default
    {!Vfs.real}) is the storage seam every byte flows through — the
    fault-injection layer substitutes its own. *)

val read_file_result : ?vfs:Vfs.t -> path:string -> unit -> (string, string) result
(** Whole-file read; I/O failures come back as [Error]. *)

