(** Fixed-size domain pool for the embarrassingly parallel compute paths
    (the availability study, independent-seed replications, the bounded
    model checker's root-action cursor).

    Built directly on OCaml 5 [Domain] — no external dependencies.  A
    pool owns [jobs - 1] worker domains (the caller participates as the
    remaining worker); [map_array]/[map_list] fan items out over the
    workers through a shared atomic cursor and join the results {e by
    item index}, never by completion order, so the output is
    deterministic whenever the per-item function is.  Exceptions raised
    by the function are re-raised in the caller, lowest failing index
    first.

    Nested pools are refused at the source: a worker that itself calls
    {!create} (directly or through {!with_pool}) gets a sequential
    [jobs = 1] pool, so the parallel entry points can be layered without
    domain explosion ([Study.replicate ~jobs] over [Study.run ~jobs],
    the bench over both). *)

type t

val recommended : unit -> int
(** [Domain.recommended_domain_count ()] clamped to [1 .. max_jobs]. *)

val max_jobs : int
(** Upper bound on any pool size (64): beyond the hardware parallelism
    extra domains only add scheduling noise. *)

val default_jobs : unit -> int
(** The [DYNVOTE_JOBS] environment variable when it parses to a positive
    integer (clamped to [max_jobs]), {!recommended} otherwise. *)

val create : ?jobs:int -> unit -> t
(** A pool of [jobs] workers ([default_jobs ()] when omitted; values are
    clamped to [1 .. max_jobs]).  Called from inside another pool's
    worker, the result is always sequential ([jobs t = 1]) — see the
    nested-pool rule above.  Idle workers block on a condition variable;
    a pool costs nothing between calls. *)

val jobs : t -> int
(** The parallelism this pool actually provides (1 = sequential). *)

val shutdown : t -> unit
(** Join the worker domains.  Idempotent.  Using the pool afterwards
    raises [Invalid_argument]. *)

val with_pool : ?jobs:int -> (t -> 'a) -> 'a
(** [create], run, [shutdown] (also on exceptions). *)

type steal_stats = {
  steals : int;  (** work items this worker took from a shared cursor *)
  failed_steals : int;  (** cursor probes that found no item left *)
}
(** One worker's claim counters in a cursor-driven fan-out (the model
    checker's root cursor fills them per worker).  The type and field
    names are historical and stay only because perfbench reads them;
    rename them with the next change to the benchmark, together with the
    [K] wire prefix. *)

val map_array : t -> ('a -> 'b) -> 'a array -> 'b array
(** [map_array t f xs] is [Array.map f xs] computed by all workers.
    Items are claimed through a shared cursor (dynamic load balancing);
    results land at their item's index.  [f] runs with {!in_worker} set
    at every width, one job and one item included (the previous value is
    restored afterwards).  The first exception by item index is
    re-raised after every worker has drained. *)

val map_list : t -> ('a -> 'b) -> 'a list -> 'b list
(** {!map_array} for lists, preserving order. *)

val in_worker : unit -> bool
(** Whether the calling domain is currently executing a pool task (the
    caller's own participation included).  Library code uses this to
    fall back to sequential execution instead of nesting pools. *)
