(** Deterministic rendering of {!Checker.report}s (timing is the
    caller's business, keeping this output cram-stable). *)

val pp_trace : Format.formatter -> Dynvote_chaos.Schedule.step list -> unit

val pp : Format.formatter -> Checker.report -> unit
(** One verdict block: the summary line, plus schedule / violations /
    replay confirmation for counterexamples. *)

val pp_expectation : Format.formatter -> Checker.report -> unit
(** The verdict measured against the policy's [expect_safe] flag. *)
