(** Per-site audit journal of the live service, and the canonical
    encoding of the replicated file's entries.

    Each node's directory holds:

    - [shards/] — the voted objects' (o, v, P) ensembles, data versions
      and values, in {!Dynvote_shard.Shard_store}'s append-only shard
      logs;
    - [oplog.dvl] — an append-only log of every commit this node applied
      and every client-visible outcome it coordinated, one
      {!Dynvote.Codec} sealed record each; the merged logs of all nodes replay through
      the chaos {!Dynvote_chaos.Oracle}, one oracle per object;
    - [amnesiac] — present only while the node has lost its shard logs
      and not yet recovered.

    A node killed at any instant restarts from these files.  Every byte
    flows through a {!Dynvote.Vfs} ([Vfs.real] by default), so the
    fault-injection filesystem can strike any single operation. *)

val site_dir : dir:string -> Site_set.site -> string
val ensure_site_dir : dir:string -> Site_set.site -> string
val oplog_path : dir:string -> Site_set.site -> string

val amnesia_path : dir:string -> Site_set.site -> string
(** The marker that keeps a node amnesiac across restarts until a
    RECOVER succeeds. *)

(** {2 The file's entries} *)

val encode_entries : (string * string) list -> string
(** Canonical (key-sorted, length-framed) serialization of a key-value
    store — the value of the replicated file when every client key maps
    to one object; injective, so distinct stores never collide. *)

val decode_entries : string -> (string * string) list
(** Inverse of {!encode_entries}.
    @raise Invalid_argument on bytes {!encode_entries} cannot produce. *)

(** {2 Operation log} *)

type record =
  | Log_commit of {
      seq : int;
      key : string;  (** the object the ensemble belongs to *)
      op_no : int;
      version : int;
      partition : Site_set.t;
      rid : int;  (** request id the commit applied, 0 if none *)
    }
      (** this node applied a commit (site is implied by whose log it
          is).  The value bytes live in the shard logs — this record is
          the audit journal's view of the consistency event *)
  | Log_intent of { seq : int; key : string; content : string }
      (** a write coordinator is about to distribute COMMITs installing
          [content]; an intent with no later outcome marks a coordinator
          killed mid-wave *)
  | Log_outcome of {
      seq : int;
      key : string;
      kind : [ `Read | `Write | `Recover ];
      granted : bool;
      content : string option;
          (** the object content the operation served (granted reads) or
              installed (granted writes) *)
      rid : int;  (** request id the outcome answered, 0 if none *)
    }

val seq_of : record -> int

type log
(** An open append channel over a {!Dynvote.Vfs}. *)

val open_log : ?vfs:Vfs.t -> path:string -> unit -> log
val log_path : log -> string

val append : log -> record -> unit
(** Framed, checksummed, written through in full (no userland
    buffering).  Appends are not fsynced; a power cut may truncate the
    unsynced suffix, which replay tolerates as a torn tail. *)

val close_log : log -> unit

type scan = {
  records : record list;  (** intact records, in file order *)
  torn : bool;  (** a damaged tail was dropped — what an honest crash leaves *)
  corrupt : int;
      (** checksum-failing records {e followed by intact ones} — a hole in
          the middle of the history that no crash can explain; recovery
          must not trust a site whose log shows these *)
  valid_prefix : int;
      (** byte length of the damage-free prefix (every record before the
          first bad frame).  A booting node cuts a purely-torn log back to
          this point before appending: appending past a partial frame
          would leave the new records unreadable and look like mid-log
          corruption on the next scan *)
}

val scan_log : ?vfs:Vfs.t -> path:string -> unit -> scan
(** Parse the whole log, resynchronizing past complete-but-corrupt frames
    (their length prefix is trusted when plausible).  A missing file is
    an empty scan. *)

val read_log : path:string -> record list * bool
(** [scan_log] collapsed to (records, any damage seen) — the shape the
    audit replay consumes. *)
