(* Rendering for the CLI and bench: deterministic (no timing on this
   path — wall-clock rates are the caller's business). *)

module Harness = Dynvote_chaos.Harness
module Oracle = Dynvote_chaos.Oracle
module Schedule = Dynvote_chaos.Schedule

let pp_trace ppf steps =
  Fmt.pf ppf "[%a]" Fmt.(list ~sep:(any "; ") Schedule.pp_step) steps

let pp ppf (r : Checker.report) =
  let name = r.Checker.policy.Harness.name in
  let res = r.Checker.result in
  let stats ppf () =
    Fmt.pf ppf "%d states, %d transitions" res.Explorer.distinct
      res.Explorer.transitions
  in
  match r.Checker.verdict with
  | Checker.Clean { closed } ->
      if closed then
        Fmt.pf ppf "%-9s safe: state space closed at depth %d (%a)" name
          res.Explorer.depth stats ()
      else
        Fmt.pf ppf "%-9s safe to depth %d (%a)" name res.Explorer.depth stats ()
  | Checker.Inconclusive ->
      Fmt.pf ppf "%-9s inconclusive: state budget exhausted after depth %d (%a)"
        name res.Explorer.depth stats ()
  | Checker.Counterexample { schedule; violations; replay_matches; _ } ->
      Fmt.pf ppf "%-9s VIOLATION in %d steps (%a)@,  schedule: %a@,%a@,  chaos replay: %s"
        name
        (List.length schedule.Schedule.steps)
        stats () pp_trace schedule.Schedule.steps
        Fmt.(list ~sep:cut (fun ppf v -> Fmt.pf ppf "  %a" Oracle.pp_violation v))
        violations
        (if replay_matches then "reproduces the same violation"
         else "DIVERGES from the explorer")

let pp_expectation ppf (r : Checker.report) =
  let expected = r.Checker.policy.Harness.expect_safe in
  match r.Checker.verdict with
  | Checker.Clean _ ->
      if expected then Fmt.pf ppf "expected safe: OK"
      else Fmt.pf ppf "expected unsafe: no violation within this bound"
  | Checker.Inconclusive -> Fmt.pf ppf "no verdict"
  | Checker.Counterexample { replay_matches; _ } ->
      if not replay_matches then Fmt.pf ppf "REPLAY MISMATCH"
      else if expected then Fmt.pf ppf "UNEXPECTED: policy was expected safe"
      else Fmt.pf ppf "expected unsafe: hole confirmed"
