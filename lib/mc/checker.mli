(** Policy-level model checking: run the {!Explorer} for one policy and
    cross-validate any counterexample by replaying it through
    {!Dynvote_chaos.Harness.run}. *)

val paper_segment_of : Site_set.site -> int
(** The paper's §3 four-copy topology: sites 0 and 1 (A, B) share a
    segment; 2 (C) and 3 (D) are alone on theirs. *)

val make_config :
  ?flavor:Decision.flavor ->
  ?delivery:Dynvote_msgsim.Cluster.delivery ->
  universe:Site_set.t ->
  segment_of:(Site_set.site -> int) ->
  unit ->
  Dynvote_chaos.Harness.config
(** A harness config for exhaustive checking: [Quiet] delivery (the
    paper's model — and no timeout events to simulate), [`After_decide]
    coordinator crashes, atomic commits. *)

val paper_config : ?flavor:Decision.flavor -> unit -> Dynvote_chaos.Harness.config
(** {!make_config} on the §3 four-copy example. *)

type verdict =
  | Clean of { closed : bool }  (** no violation within the bound *)
  | Counterexample of {
      schedule : Dynvote_chaos.Schedule.t;
      violations : Dynvote_chaos.Oracle.violation list;
      replay : Dynvote_chaos.Oracle.violation list;
          (** what {!Dynvote_chaos.Harness.run} reports on the same
              schedule *)
      replay_matches : bool;  (** [replay = violations] *)
    }
  | Inconclusive  (** the state budget ran out first *)

type report = {
  policy : Dynvote_chaos.Harness.policy;
  depth : int;  (** the requested bound *)
  result : Explorer.result;
  verdict : verdict;
}

val check :
  ?space:Space.t ->
  ?symmetry:bool ->
  ?por:bool ->
  ?max_states:int ->
  ?progress:(depth:int -> distinct:int -> transitions:int -> unit) ->
  ?jobs:int ->
  policy:Dynvote_chaos.Harness.policy ->
  depth:int ->
  Dynvote_chaos.Harness.config ->
  report
(** Explore [config] (its flavor replaced by the policy's) to [depth].
    [jobs] is passed to {!Explorer.search}; verdicts are independent of
    it. *)

val verdict_ok : report -> bool
(** Acceptable result: clean or inconclusive, or a counterexample that
    both replays identically in the chaos harness and hits a policy
    expected to be unsafe. *)
