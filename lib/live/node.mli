(** One live site: a server thread behind a real socket, holding the
    voted objects — each an (o, v, P) ensemble, a data version and a
    value — and their volatile locks.  Objects persist in the site's
    {!Dynvote_shard.Shard_store} logs and every event in its {!Persist}
    oplog, so a kill-and-restart recovers from disk.

    A client key maps to one object: with [shards > 0] each key is its
    own object; with [shards = 0] every key maps to one object, the
    paper's replicated file, whose value is the file's entries
    ({!Persist.encode_entries}).  Every protocol step is the same code
    in both modes.

    The node serves the peer protocol (state / lock / data / commit) and
    coordinates client operations itself, running the paper's protocol as
    genuine request/reply exchanges: volatile lock round, broadcast
    gather, majority-partition decision, verified data fetch, then the
    COMMIT wave (or an ABORT that releases the locks).  While a
    coordinator waits for its own replies it keeps serving incoming peer
    requests on the same connection, so concurrent coordinators never
    deadlock. *)

type config = {
  gather_timeout : float;  (** seconds to wait per gather round *)
  retries : int;  (** re-ask silent sites this many times *)
  backoff : float;  (** patience multiplier per retry, >= 1 *)
  lock_lease : float;
      (** seconds before an abandoned volatile lock self-releases (a
          coordinator that died mid-operation cannot unlock) *)
  lock_retries : int;  (** lock-round attempts before reporting busy *)
  lock_backoff : float;  (** seconds between lock-round attempts *)
  durable : bool;
      (** fsync the shard logs after every batch of commits ([true], the
          paper's stable-storage requirement); [false] skips the fsyncs —
          for throughput experiments only *)
  clock : unit -> float;
      (** every deadline, lease and backoff reads this clock; defaults to
          the monotonic {!Dynvote_obs.Clock.now} so wall-clock steps
          cannot expire (or immortalize) leases.  Injectable for tests. *)
  pipeline : int;
      (** client operations admitted concurrently (as effect-suspended
          fibers; a ticket turnstile keeps their protocol sections in
          admission order).  [1] — the default — is the fully sequential
          coordinator *)
  max_reuse : int;
      (** operations that may join an anchored lock round and decide
          against its cached gather before a fresh round is forced (the
          anchor also rotates at 0.4 x [lock_lease] regardless).  [0] —
          the default — disables anchoring: every operation runs its own
          lock round and gather *)
  shards : int;
      (** [> 0] turns on the sharded object space: every key is an
          independently-voted (o, v, P) object, persisted across this
          many per-site append logs.  [0] — the default — maps every key
          to {!file_object}, the paper's single replicated file, kept in
          one log.  Either way, group-quorum rounds cover every object a
          scheduler burst touches in one wire exchange *)
  resident : int;
      (** bound on keys materialized in volatile memory at once (the
          shard map's LRU capacity); evicted keys re-materialize from
          the shard logs on next touch *)
}

val default_config : config
(** 0.2 s gather rounds, 1 retry, backoff 2.0, 2 s lock lease, durable,
    monotonic clock, no pipelining ([pipeline = 1], [max_reuse = 0]),
    one replicated file ([shards = 0], [resident = 4096]). *)

type t

exception Killed
(** Raised inside the node thread by a crash hook: the thread unwinds
    instantly, losing all volatile state — the deterministic stand-in for
    "the process died at this exact instant". *)

val boot :
  site:Site_set.site ->
  universe:Site_set.t ->
  flavor:Decision.flavor ->
  segment_of:(Site_set.site -> int) ->
  config:config ->
  obs:Dynvote_obs.Hub.t ->
  dir:string ->
  ?vfs:Vfs.t ->
  next_seq:(unit -> int) ->
  port:int ->
  was_restarted:bool ->
  unit ->
  t
(** Load the objects from the shard logs under [dir] (a restart whose
    shard logs are gone leaves the node {e amnesiac}: abstaining from
    state requests and refusing to coordinate until a RECOVER of the
    file succeeds — in the sharded space, for good), connect to the
    switchboard on [port], and register.  A mid-log corrupt oplog or
    shard log — checksum-failing records with intact ones after them,
    damage no crash explains — boots the node straight into degraded
    mode.  [vfs] (default {!Dynvote.Vfs.real}) carries every
    stable-storage byte, so a fault-injecting filesystem can strike any
    single operation.  [was_restarted] clears the freshness claim until
    the node applies its next commit.  [obs] receives the node's
    counters, latency histogram and trace events (pass
    {!Dynvote_obs.Hub.noop} to compile them all down to a branch). *)

val serve : t -> unit
(** The node thread body: handle frames until the connection dies. *)

val file_object : string
(** The one object every key maps to when [shards = 0]. *)

val oracle_content : string option -> string
(** The per-object oracle content encoding: [""] for a never-written
    object, ["=" ^ v] for value [v] — injective, so the audit's
    content-fork scan never confuses "no value" with an empty write. *)

val site : t -> Site_set.site
val is_amnesiac : t -> bool

val degraded : t -> string option
(** [Some reason] when a storage failure has fenced this site read-only:
    silent to state and lock requests, refusing commits, answering every
    client request with {!Wire.Degraded}.  Cleared only by rebooting the
    site. *)

val set_commit_hook : t -> (sent:int -> total:int -> unit) option -> unit
(** Fired after each COMMIT send of a wave this node coordinates
    ([sent] of [total]); the hook may raise {!Killed} to strike the
    coordinator mid-commit. *)
