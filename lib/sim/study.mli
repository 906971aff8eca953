(** The availability study of the paper's §4.

    Replays a single stochastic failure history through every requested
    (configuration × policy) instance, yielding the unavailability
    (Table 2) and mean unavailable-period duration (Table 3) of each cell,
    with batch-means confidence intervals. *)

type parameters = {
  seed : int;
  warmup : float;           (** days discarded before measuring (paper: 360) *)
  horizon : float;          (** total simulated days, warm-up included *)
  batches : int;            (** batch count for confidence intervals *)
  access_interval : float;  (** days between accesses for ODV/OTDV (paper: 1) *)
}

val default_parameters : parameters
(** seed 42, 360-day warm-up, 400 360-day horizon, 20 batches, one access
    per day. *)

type summary = {
  interval : Dynvote_stats.Batch_means.interval;
  unavailability : float;
  mean_outage_days : float;
  outages : int;
  longest_up_days : float;
  observed_days : float;
}

type result = {
  config : Config.t;
  kind : Policy.kind;
  interval : Dynvote_stats.Batch_means.interval;
  unavailability : float;    (** Table 2 cell *)
  mean_outage_days : float;  (** Table 3 cell; [nan] when never unavailable *)
  outages : int;
  longest_up_days : float;
  observed_days : float;
}

val run_drivers :
  ?parameters:parameters ->
  ?specs:Dynvote_failures.Site_spec.t array ->
  ?topology:Dynvote_net.Topology.t ->
  ?progress:(completed:float -> total:float -> unit) ->
  ?observe:('key -> time:float -> available:bool -> unit) ->
  drivers:('key * Driver.t) list ->
  unit ->
  ('key * summary) list
(** Run arbitrary policy drivers (extensions, ablations) against the same
    failure trace; results are keyed by the caller's keys, in order.
    [observe] fires at every change of an instance's availability
    indicator (used by {!Timeline}), in transition order and, within one
    transition, in driver order.  [progress] fires as for {!run}. *)

val run :
  ?parameters:parameters ->
  ?kinds:Policy.kind list ->
  ?configs:Config.t list ->
  ?specs:Dynvote_failures.Site_spec.t array ->
  ?topology:Dynvote_net.Topology.t ->
  ?ordering:Ordering.t ->
  ?recovery:Policy.recovery ->
  ?progress:(completed:float -> total:float -> unit) ->
  ?jobs:int ->
  unit ->
  result list
(** Defaults reproduce the paper: Figure 8 topology, Table 1 sites,
    configurations A–H, all six policies, site 1 ranked highest, recovery
    folded into accesses.  Results are configuration-major in the order
    given.

    The failure trace is generated once, in bounded chunks; [jobs]
    (default 1) fans only the evaluation of each chunk out over a
    {!Dynvote_exec.Pool} domain pool, one task per cell.  Every cell sees
    the same transitions in the same order whatever [jobs] is, so per-cell
    results are bit-identical for any [jobs]; result order is unchanged.

    [progress] fires between chunks, from the calling domain, whenever at
    least another hundredth of the horizon has been simulated; [completed]
    (the time of the last transition replayed, in days) strictly increases
    and stays below [total] (the horizon).
    @raise Invalid_argument on inconsistent parameters. *)

type replicated = {
  mean_unavailability : float;
  half_width_95 : float;    (** Student-t interval across replications *)
  per_seed : float list;
  mean_outage_days : float;
}

val replicate :
  ?parameters:parameters ->
  ?replications:int ->
  ?kinds:Policy.kind list ->
  ?configs:Config.t list ->
  ?specs:Dynvote_failures.Site_spec.t array ->
  ?topology:Dynvote_net.Topology.t ->
  ?ordering:Ordering.t ->
  ?recovery:Policy.recovery ->
  ?jobs:int ->
  unit ->
  ((Config.t * Policy.kind) * replicated) list
(** Independent replications under distinct seeds, pooled per cell —
    run-to-run noise, complementing the within-run batch-means intervals.
    [jobs] runs one task per seed (replications are independent by
    construction; results are identical for any [jobs]).
    @raise Invalid_argument with fewer than two replications. *)

val sweep_access_rate :
  ?parameters:parameters ->
  ?config_label:string ->
  ?rates_per_day:float list ->
  ?jobs:int ->
  unit ->
  (float * result list) list
(** Extra experiment E1: unavailability of ODV/OTDV (with LDV as the
    instantaneous reference) as a function of the file access rate.
    [jobs] runs one task per rate. *)
