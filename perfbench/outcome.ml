(* What a workload hands back to the runner. *)

open Perfbench

type ctx = {
  seed : int;
  seconds : float;  (** length of the measured phase *)
  jobs : int;  (** worker domains for the compute workloads, <= cores *)
  spans : Span.t;
  work_dir : string;  (** scratch directory inside the checkout *)
}

type t = {
  checks : (string * bool) list;  (** correctness gates, all must hold *)
  attempted : int;
  failed : int;
  metrics : (string * float option) list;
      (** by name; [None] is a missing figure (zero denominator, or a layer
          the workload does not run) *)
  notes : (string * Json.t) list;  (** ledger context: sample counts, classes *)
}

let correct t = List.for_all snd t.checks
