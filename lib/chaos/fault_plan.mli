(** Seeded, composable fault plans for the message transport.

    Builds a {!Dynvote_msgsim.Transport.plan} from a declarative
    configuration and a splitmix64 stream: per-link Bernoulli loss,
    duplication, bounded random delay (reordering) and scheduled link
    outage windows, applied in that fixed order.  The same seed replays
    the same faults against the same message sequence. *)

type flap = {
  site_a : Site_set.site;
  site_b : Site_set.site;
  from_t : float;  (** window start (simulated seconds, inclusive) *)
  till : float;    (** window end (exclusive) *)
}
(** A scheduled outage of one link, in both directions. *)

type config = {
  loss : float;          (** per-message Bernoulli loss probability *)
  duplicate : float;     (** probability of injecting an extra copy *)
  delay : float;         (** probability of extra latency *)
  delay_bound : float;   (** extra latency is uniform in [0, bound) *)
  flaps : flap list;     (** scheduled link outage windows *)
  atomic_commits : bool;
      (** exempt COMMIT messages from every fault.  The paper's model
          makes update operations atomic; a partially delivered COMMIT
          breaks that assumption and lets a later quorum re-issue an
          already-used generation number.  [true] honours the model (the
          safe flavors must then show zero violations); [false]
          reproduces the hole for the oracle to catch. *)
}

val silent : config
(** No faults, atomic commits — the identity plan. *)

val make :
  rng:Dynvote_prng.Splitmix64.t ->
  ?reliable:(Site_set.site -> Site_set.site -> bool) ->
  config ->
  Dynvote_msgsim.Transport.plan
(** [make ~rng config] draws every probabilistic choice from [rng].
    [reliable a b] (default: never) marks links that cannot lose or flap
    — same-segment pairs under the topological flavors, whose model
    reads same-segment silence as site death.  Duplication and delay
    still apply to reliable links.
    @raise Invalid_argument on out-of-range probabilities or negative
    bounds. *)

val pp_config : Format.formatter -> config -> unit

(** {2 Storage faults}

    The disk-side fault vocabulary, shared by the fault-injecting
    filesystem ([Dynvote_faultfs]), the crash-point recovery matrix, and
    the CLI's [--fault] flags.  Unlike the probabilistic message plan, a
    storage trigger is deterministic — "the [nth] operation of this
    class on this file fails this way" — so every matrix cell replays
    identically. *)

module Storage : sig
  type fault =
    | Eio  (** write fails outright *)
    | Enospc  (** write fails: device full *)
    | Short_write
        (** write lands partially, then the device dies (every further
            write on the file fails) *)
    | Fsync_fail  (** fsync raises; nothing is promised durable *)
    | Fsync_lie
        (** fsync returns success but flushes nothing — the silent
            failure mode of consumer disks and some fsync bugs *)
    | Rename_loss
        (** the directory fsync after a rename is dropped: the name
            switch is not durable and a crash undoes it *)
    | Read_eio  (** read fails (surfaces as [Sys_error]) *)
    | Crash  (** the process dies at this exact operation *)

  type file_class = Oplog | Shard | Any_file
  (** [Oplog]: the per-site operation log.  [Shard]: the per-site
      object logs ([shard-<i>.dvl], their compaction temp files, and
      the [rids.dvr] sidecar) — every voted object's state, the
      replicated file included. *)

  type op = Create | Write | Fsync | Rename | Fsync_dir | Read

  type trigger = { fault : fault; file : file_class; op : op; nth : int }
  (** Strike the [nth] (1-based) [op] on a file of class [file] with
      [fault].  A trigger fires at most once. *)

  val all_faults : fault list
  val fault_name : fault -> string
  val fault_of_name : string -> fault option

  val default_op : fault -> op
  (** The operation class each fault naturally strikes. *)

  val file_name : file_class -> string
  val file_of_name : string -> file_class option
  val op_name : op -> string

  val trigger : ?file:file_class -> ?nth:int -> fault -> trigger
  (** A trigger at the fault's {!default_op}. *)

  val trigger_of_string : string -> (trigger, string) result
  (** Parse ["<fault>[@nth][:file]"] — e.g. ["fsync-fail@2:shard"],
      ["eio:oplog"], ["crash"].  The operation is the fault's default. *)

  val pp_trigger : Format.formatter -> trigger -> unit
end
