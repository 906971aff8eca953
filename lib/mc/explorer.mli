(** Bounded explicit-state search: iterative-deepening DFS over the
    {!Space} alphabet, pruned by a seen-state store of canonical
    {!Fingerprint} hashes, with the safety oracle checked at every
    state and commuting fault actions reduced by {!Por}. *)

type outcome =
  | Safe of { closed : bool }
      (** no reachable violation within the bound; [closed] means the
          entire reachable space (under the alphabet) was exhausted
          before the bound, so no depth would ever find one *)
  | Violation of {
      trace : Dynvote_chaos.Schedule.step list;
      violations : Dynvote_chaos.Oracle.violation list;
    }
      (** a minimum-length path to an unsafe state (iterative deepening
          finds shortest counterexamples first) *)
  | Out_of_budget  (** the seen store hit [max_states] *)

type result = {
  outcome : outcome;
  depth : int;
      (** bound fully exhausted (or closed at); for a violation, the
          trace length; for out-of-budget, the last completed bound *)
  visited : int;  (** states stored, cumulative over all iterations *)
  distinct : int;  (** seen-store size of the final iteration *)
  transitions : int;  (** actions applied, cumulative *)
  peak_seen : int;  (** largest seen-store size — the memory high-water *)
  spilled : int;
      (** peak entries in the store's on-disk spill tier (0 unless
          [DYNVOTE_MC_SPILL] enables spilling; see {!Striped_seen}) *)
  workers : Dynvote_exec.Pool.steal_stats array;
      (** one entry per pool worker, summed over the deepening
          iterations: [steals] counts the root actions the worker took
          from the shared root cursor, [failed_steals] the cursor probes
          that found none left (past the end, or the search stopping).
          Empty when no deepening iteration ran. *)
}

val search :
  ?space:Space.t ->
  ?symmetry:bool ->
  ?por:bool ->
  ?max_states:int ->
  ?progress:(depth:int -> distinct:int -> transitions:int -> unit) ->
  ?jobs:int ->
  config:Dynvote_chaos.Harness.config ->
  depth:int ->
  unit ->
  result
(** Explore from the initial state of a fresh session of [config].
    [symmetry] (within-segment site relabeling in the fingerprint)
    defaults to on exactly when the flavor has no lexicographic
    tie-break — relabeling does not commute with the site ordering.
    [por] (default on) explores commuting fault actions in sorted order
    only; it changes no verdict, no counterexample length and no
    distinct-state count on a completed bound — only [transitions] and
    the choice among equally short counterexamples (see {!Por}).
    [max_states] (default 1_000_000) bounds the seen store.  [progress]
    is called after each completed deepening iteration.

    [jobs] (default 1) is the width of the {!Dynvote_exec.Pool} each
    deepening iteration runs on.  Every width runs the same search: the
    workers pull root actions from one shared cursor, each drives its
    own private session (cluster and oracle are mutable, never shared)
    below them, and all deduplicate through one lock-striped fingerprint
    store, so [distinct] and the [max_states] budget stay global.  The
    verdict — [Safe]/[Violation]/[Out_of_budget], the [closed] flag, the
    trace length, and [distinct] on a [Safe] outcome — is independent of
    [jobs]; [visited], [transitions], [peak_seen], [distinct] on a
    [Violation] (the store size when the search stopped), [workers] and
    the choice among equally short counterexamples may vary with the
    interleaving.  At one job (and inside another pool's worker, where
    the pool collapses to one job) the single worker takes the root
    actions in order over a one-shard store: the traversal is
    deterministic, and the cram tests pin its statistics. *)
