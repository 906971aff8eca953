(* Availability bookkeeping for one (configuration, policy) instance.

   The availability indicator is piecewise constant between change points;
   callers advance the clock with [advance] (integrating the current
   indicator) and flip the indicator with [set_available].  Observations
   before [warmup] are discarded (the paper uses a 360-day time-to-steady-
   state); afterwards the run is cut into fixed-length batches whose
   per-batch unavailabilities feed a batch-means confidence interval. *)

(* The float state lives in a float-only record, which OCaml stores
   flat: updating it never boxes. *)
type clock = {
  warmup : float;
  batch_length : float;
  mutable now : float;
  (* Accumulator for the batch in progress. *)
  mutable batch_start : float;
  mutable batch_unavailable : float;
  (* Whole-run tallies (post-warmup). *)
  mutable unavailable_time : float;
  mutable observed_time : float;
  mutable current_stretch_start : float; (* start of current up stretch *)
  mutable longest_up : float;
  mutable current_outage_start : float;
}

type t = {
  clock : clock;
  batch_means : Dynvote_stats.Batch_means.t;
  mutable available : bool;
  mutable outages : int; (* completed or ongoing unavailable periods *)
  outage_durations : Dynvote_stats.Welford.t;
}

let create ?(warmup = 360.0) ~batch_length () =
  if warmup < 0.0 then invalid_arg "Metrics.create: negative warmup";
  if batch_length <= 0.0 then invalid_arg "Metrics.create: batch_length must be positive";
  {
    clock =
      {
        warmup;
        batch_length;
        now = 0.0;
        batch_start = warmup;
        batch_unavailable = 0.0;
        unavailable_time = 0.0;
        observed_time = 0.0;
        current_stretch_start = 0.0;
        longest_up = 0.0;
        current_outage_start = nan;
      };
    batch_means = Dynvote_stats.Batch_means.create ~batch_length;
    available = true;
    outages = 0;
    outage_durations = Dynvote_stats.Welford.create ();
  }

let now t = t.clock.now
let is_available t = t.available

(* Integrate the current indicator over [t.now, upto], slicing the interval
   at batch boundaries so each batch receives exactly its share.  A loop
   over a local float, so the common case of one slice allocates
   nothing. *)
let advance t ~upto =
  let c = t.clock in
  if upto < c.now then invalid_arg "Metrics.advance: time going backwards";
  let from = ref (if c.now < c.warmup then Float.min upto c.warmup else c.now) in
  while !from < upto do
    let batch_end = c.batch_start +. c.batch_length in
    let upto' = Float.min upto batch_end in
    let span = upto' -. !from in
    c.observed_time <- c.observed_time +. span;
    if not t.available then begin
      c.batch_unavailable <- c.batch_unavailable +. span;
      c.unavailable_time <- c.unavailable_time +. span
    end;
    if upto' >= batch_end then begin
      Dynvote_stats.Batch_means.add_batch t.batch_means
        (c.batch_unavailable /. c.batch_length);
      c.batch_start <- batch_end;
      c.batch_unavailable <- 0.0
    end;
    from := upto'
  done;
  c.now <- upto

let set_available t available =
  let c = t.clock in
  if available <> t.available then begin
    if available then begin
      (* Outage ends.  Duration statistics only cover outages that started
         after the warm-up, matching the [outages] counter. *)
      if
        (not (Float.is_nan c.current_outage_start))
        && c.current_outage_start >= c.warmup
      then
        Dynvote_stats.Welford.add t.outage_durations (c.now -. c.current_outage_start);
      c.current_outage_start <- nan;
      c.current_stretch_start <- c.now
    end
    else begin
      (* Up stretch ends; outage begins. *)
      let stretch = c.now -. c.current_stretch_start in
      if stretch > c.longest_up then c.longest_up <- stretch;
      if c.now >= c.warmup then begin
        t.outages <- t.outages + 1;
        c.current_outage_start <- c.now
      end
      else c.current_outage_start <- c.now
    end;
    t.available <- available
  end

let finish t ~upto =
  advance t ~upto;
  if t.available then begin
    let stretch = t.clock.now -. t.clock.current_stretch_start in
    if stretch > t.clock.longest_up then t.clock.longest_up <- stretch
  end

let unavailability t =
  let c = t.clock in
  if c.observed_time = 0.0 then nan else c.unavailable_time /. c.observed_time

let interval ?confidence t = Dynvote_stats.Batch_means.interval ?confidence t.batch_means

let batch_means t = t.batch_means

let outages t = t.outages

let unavailable_time t = t.clock.unavailable_time

let observed_time t = t.clock.observed_time

(* Mean duration of unavailable periods, in days (Table 3).  NaN when the
   file never became unavailable. *)
let mean_outage_duration t =
  if t.outages = 0 then nan else t.clock.unavailable_time /. float_of_int t.outages

let outage_duration_stats t = t.outage_durations

let longest_up t = t.clock.longest_up
