(* The live-service workload [keys-pipelined]: a 4-site cluster on
   loopback running the keyed engine, driven by two closed-loop clients
   from this process.

   The clients are the benchmark's own, not [Loadgen.run]: pooled read
   and write latency percentiles need every sample, and the failure
   accounting needs every call's outcome, which [Loadgen.result] folds
   away.  They send the frames a [`Mux] [Loadgen] worker sends (Hello,
   then Client_put/Client_get over [Evconn] connections multiplexed on
   one [Evloop] thread), from [Loadgen.worker_seeds] streams. *)

module Cluster = Dynvote_live.Cluster
module Node = Dynvote_live.Node
module Wire = Dynvote_live.Wire
module Evloop = Dynvote_live.Evloop
module Evconn = Dynvote_live.Evconn
module Loadgen = Dynvote_live.Loadgen
module Hub = Dynvote_obs.Hub
module Metrics = Dynvote_obs.Metrics
module Trace = Dynvote_obs.Trace
module Clock = Dynvote_obs.Clock
module Oracle = Dynvote_chaos.Oracle
module Harness = Dynvote_chaos.Harness
module Zipf = Dynvote_shard.Zipf
module Rng = Dynvote_prng.Rng
open Perfbench

(* Keyed objects, 70% writes, one anchored and pipelined coordinator,
   buffered persistence, a Zipf key space 20x the residency cap.  The
   timings are [dynvote loadgen]'s loopback tuning. *)
let config =
  { Node.default_config with
    Node.gather_timeout = 0.05; lock_backoff = 0.02; durable = false; pipeline = 8;
    max_reuse = 64; shards = 64; resident = 1024 }

let sites = 4
let clients = 2
let coordinator = 0
let keys = 20_000
let zipf = Zipf.create ~n:keys ~s:0.99
let write_ratio = 0.7
let value_bytes = 256
let warmup_ops = 600  (* issued by one client after boot, before measuring *)

(* ------------------------------------------------------------------ *)
(* Outcomes *)

type cls = Granted | Late | Denied | Aborted | Degraded | Timed_out | Error

let class_names =
  [ (Granted, "granted"); (Late, "late"); (Denied, "denied"); (Aborted, "aborted");
    (Degraded, "degraded"); (Timed_out, "timed_out"); (Error, "error") ]

let is_failure = function Granted | Late -> false | _ -> true

let classify status info =
  match status with
  | Wire.Granted -> Granted
  | Wire.Denied -> Denied
  | Wire.Degraded -> Degraded
  | Wire.Aborted ->
      if String.starts_with ~prefix:"timeout" info then Timed_out else Aborted

type sample = { finish : float; latency : float; cls : cls }

let count cls samples = Array.fold_left (fun k s -> if s.cls = cls then k + 1 else k) 0 samples
let failures samples = Array.fold_left (fun k s -> if is_failure s.cls then k + 1 else k) 0 samples

(* Who may issue the next call: before [t_end], and within [max_ops]
   calls across all clients when set. *)
type budget = { t_end : float; max_ops : int option; issued : int Atomic.t }

let take b =
  Clock.now () < b.t_end
  && match b.max_ops with
     | None -> true
     | Some m -> Atomic.fetch_and_add b.issued 1 < m

let payload = String.make value_bytes 'x'

let record spans journal ~index ~n ~start ~is_write cls =
  let finish = Clock.now () in
  if Span.on spans then
    Span.add spans ~track:(100 + index) ~id:(Printf.sprintf "c%d.%d" index n)
      ~parent:"load" ~start ~stop:finish
      ~args:[ ("write", Json.Bool is_write); ("class", Json.String (List.assoc cls class_names)) ]
      "client.op";
  journal := { finish; latency = finish -. start; cls } :: !journal

type mconn = {
  index : int;
  fd : Unix.file_descr;
  conn : Evconn.t;
  rng : Rng.t;
  journal : sample list ref;
  mutable id : int;
  mutable req : int;
  mutable pending : (float * bool) option;  (** start, is_write *)
  mutable writing : bool;
  mutable closed : bool;
}

(* Replies still owed at the end of the budget get this long to land;
   after it they are timed out. *)
let grace = 5.0

let mux_clients ~port ~spans ~budget rngs =
  let loop = Evloop.create () in
  let by_fd = Hashtbl.create 4 in
  let conns =
    Array.mapi
      (fun index rng ->
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
        Unix.setsockopt fd Unix.TCP_NODELAY true;
        let conn = Evconn.of_fd fd in
        let c =
          { index; fd; conn; rng; journal = ref []; id = 0; req = 0; pending = None;
            writing = false; closed = false }
        in
        Hashtbl.replace by_fd fd c;
        Evloop.add loop fd ~read:true ~write:false;
        ignore
          (Evconn.enqueue conn { Wire.src = 0; dst = Wire.broker_id; payload = Wire.Hello_client }
            : [ `Ok | `Overflow ]);
        c)
      rngs
  in
  let finish c cls =
    match c.pending with
    | Some (start, is_write) ->
        c.pending <- None;
        record spans c.journal ~index:c.index ~n:c.req ~start ~is_write cls
    | None -> ()
  in
  let close c =
    if not c.closed then begin
      c.closed <- true;
      Evloop.remove loop c.fd;
      Evconn.close c.conn
    end
  in
  let lost c cls =
    finish c cls;
    close c
  in
  let sync_write c =
    match Evconn.flush c.conn with
    | `Closed -> lost c Aborted
    | `Idle | `Blocked ->
        let want = Evconn.want_write c.conn in
        if want <> c.writing then begin
          c.writing <- want;
          Evloop.modify loop c.fd ~read:true ~write:want
        end
  in
  let issue c =
    if not (take budget) then close c
    else begin
      c.req <- c.req + 1;
      let key = Printf.sprintf "k%d" (Zipf.sample zipf (Rng.float c.rng)) in
      let is_write = Rng.float c.rng < write_ratio in
      let payload =
        if is_write then
          Wire.Client_put
            { req = c.req; key; value = Printf.sprintf "%d.%d:%s" c.index c.req payload }
        else Wire.Client_get { req = c.req; key }
      in
      c.pending <- Some (Clock.now (), is_write);
      match Evconn.enqueue c.conn { Wire.src = c.id; dst = coordinator; payload } with
      | `Overflow -> lost c Error
      | `Ok -> sync_write c
    end
  in
  let on_frame c = function
    | Ok { Wire.payload = Wire.Welcome { id }; _ } ->
        c.id <- id;
        issue c
    | Ok { Wire.payload = Wire.Client_reply { req; status; info; _ }; _ } when req = c.req ->
        finish c (classify status info);
        issue c
    | Ok _ -> ()
    | Error _ -> lost c Error
  in
  let hard_end = budget.t_end +. grace in
  Array.iter sync_write conns;
  while Array.exists (fun c -> not c.closed) conns && Clock.now () < hard_end do
    List.iter
      (fun (ev : Evloop.event) ->
        match Hashtbl.find_opt by_fd ev.Evloop.fd with
        | Some c when not c.closed ->
            if ev.Evloop.error then lost c Aborted
            else begin
              if ev.Evloop.writable then sync_write c;
              if ev.Evloop.readable && not c.closed then begin
                let frames, state = Evconn.on_readable c.conn in
                List.iter (fun f -> if not c.closed then on_frame c f) frames;
                if state = `Eof then lost c Aborted
              end
            end
        | _ -> ())
      (Evloop.wait loop ~timeout:0.05)
  done;
  Array.iter (fun c -> lost c Timed_out) conns;
  Evloop.close loop;
  Array.map (fun c -> !(c.journal)) conns

(* One load phase; returns every issued call's sample. *)
let load ?(clients = clients) cluster ~spans ~seed ~budget =
  let rngs = Array.map (fun s -> Rng.create ~seed:s ()) (Loadgen.worker_seeds ~seed ~n:clients) in
  mux_clients ~port:(Cluster.port cluster) ~spans ~budget rngs
  |> Array.to_list |> List.map Array.of_list |> Array.concat

(* ------------------------------------------------------------------ *)
(* Instrumented storage: a [Vfs] that times and counts what passes. *)

type io = {
  fsyncs : int Atomic.t;
  fsync_ns : int Atomic.t;
  write_bytes : int Atomic.t;
  busy_ns : int Atomic.t;  (** every write, fsync and rename *)
}

let ns_since t0 = int_of_float ((Clock.now () -. t0) *. 1e9)

let timed_vfs io spans site =
  let real = Vfs.real in
  let busy t0 = ignore (Atomic.fetch_and_add io.busy_ns (ns_since t0) : int) in
  let fsync name f x =
    let t0 = Clock.now () in
    f x;
    let dt = ns_since t0 in
    Atomic.incr io.fsyncs;
    ignore (Atomic.fetch_and_add io.fsync_ns dt : int);
    busy t0;
    Span.add spans ~track:site ~id:(Printf.sprintf "s%d" site) ~start:t0 ~stop:(Clock.now ()) name
  in
  let file (f : Vfs.file) =
    { Vfs.write =
        (fun b off len ->
          let t0 = Clock.now () in
          let n = f.Vfs.write b off len in
          ignore (Atomic.fetch_and_add io.write_bytes n : int);
          busy t0;
          n);
      fsync = fsync "vfs.fsync" f.Vfs.fsync;
      close = f.Vfs.close }
  in
  { real with
    Vfs.create = (fun p -> file (real.Vfs.create p));
    append = (fun p -> file (real.Vfs.append p));
    rename =
      (fun ~src ~dst ->
        let t0 = Clock.now () in
        real.Vfs.rename ~src ~dst;
        busy t0);
    fsync_dir = fsync "vfs.fsync_dir" real.Vfs.fsync_dir }

(* ------------------------------------------------------------------ *)
(* Boot, measure, audit *)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let flavor = (Option.get (Harness.policy_of_string "ldv")).Harness.flavor

(* Boot a cluster and warm it up; the elapsed time is one set-up. *)
let boot ~dir ~seed ?obs ?vfs_of () =
  let t0 = Clock.now () in
  let cluster =
    Cluster.create ~flavor ~config ?obs ?vfs_of ~universe:(Site_set.universe sites) ~dir ()
  in
  ignore
    (load ~clients:1 cluster ~spans:(Span.create ~on:false) ~seed
       ~budget:{ t_end = Clock.now () +. 60.0; max_ops = Some warmup_ops; issued = Atomic.make 0 });
  (cluster, Clock.now () -. t0)

let counter cluster name = Metrics.counter_value (Metrics.counter (Cluster.obs cluster).Hub.metrics name)

let hist cluster name =
  let h = Metrics.histogram (Cluster.obs cluster).Hub.metrics name in
  (Metrics.histogram_count h, Metrics.histogram_mean h)

let counters =
  [ "live.op.granted"; "live.lock.rounds"; "live.lock.denied"; "live.gather.rounds";
    "live.gather.reused"; "live.fetch.attempts"; "live.fetch.failures"; "live.commit.waves";
    "live.shard.materialized"; "live.shard.evicted"; "net.frames.delivered"; "net.loop.wakeups" ]

let histograms =
  [ "live.commit.batch"; "live.rounds.inflight"; "live.shard.group.batch"; "net.batch.frames" ]

type reading = {
  at : float;
  ctrs : (string * int) list;
  hists : (string * (int * float)) list;
  cpu : float * float;
  syscalls : int option;
  switches : int option;
  minor_words : float;
}

let read cluster =
  { at = Clock.now ();
    ctrs = List.map (fun n -> (n, counter cluster n)) counters;
    hists = List.map (fun n -> (n, hist cluster n)) histograms;
    cpu = Procfs.cpu ();
    syscalls = Procfs.syscalls ();
    switches = Procfs.ctx_switches ();
    minor_words = Gc.minor_words () }

type phase = {
  samples : sample array;  (** classes final: late stragglers marked *)
  goodput : float;  (** calls granted inside the phase, per second *)
  rates : float array;  (** the same in one-second windows *)
  peak_rss_mb : float option;  (** high-water of the load itself, audit excluded *)
  granted : int;  (** granted calls, late ones included *)
  before : reading;
  after : reading;
  audit : Cluster.audit;
  backend : string;
}

(* Measure [seconds] of load against a booted cluster, then audit it
   and shut it down. *)
let measure cluster ~spans ~seed ~seconds =
  Procfs.reset_peak ();
  let before = read cluster in
  let t_end = before.at +. seconds in
  let samples =
    Span.time spans ~track:0 ~id:"load" "loadgen.phase" (fun () ->
        load cluster ~spans ~seed ~budget:{ t_end; max_ops = None; issued = Atomic.make 0 })
  in
  let after = read cluster in
  let peak_rss_mb = Procfs.peak_rss_mb () in
  let samples =
    Array.map (fun s -> if s.cls = Granted && s.finish >= t_end then { s with cls = Late } else s) samples
  in
  let windows = max 1 (int_of_float (Float.round seconds)) in
  let granted_at =
    Array.of_list
      (List.filter_map (fun s -> if s.cls = Granted then Some s.finish else None) (Array.to_list samples))
  in
  let rates = Stats.window_rates ~t0:before.at ~width:(seconds /. float_of_int windows) ~windows granted_at in
  let goodput = float_of_int (count Granted samples) /. seconds in
  let audit = Span.time spans ~track:0 ~id:"audit" "cluster.check" (fun () -> Cluster.check cluster) in
  let backend = Cluster.backend cluster in
  Cluster.shutdown cluster;
  { samples; goodput; rates; peak_rss_mb; granted = count Granted samples + count Late samples;
    before; after; audit; backend }

let latencies phase =
  Array.of_list
    (List.filter_map
       (fun s -> if is_failure s.cls then None else Some s.latency)
       (Array.to_list phase.samples))

(* [label] tells apart the clusters of one run, whose gates share a
   ledger. *)
let audit_checks ?(label = "") (a : Cluster.audit) =
  List.map
    (fun (name, ok) -> (label ^ name, ok))
    [ ("audit_safe", Oracle.is_safe a.Cluster.oracle);
      ("no_dup_applies", a.Cluster.dup_applies = 0);
      ("no_key_violations", a.Cluster.kviolations = []);
      ("no_corrupt_records", a.Cluster.corrupt = 0);
      ("no_torn_logs", Site_set.is_empty a.Cluster.torn) ]

let notes phase =
  [ ("backend", Json.String phase.backend);
    ("classes",
      Json.Obj (List.map (fun (cls, name) -> (name, Json.Int (count cls phase.samples))) class_names));
    ("latency_samples", Json.Int (Array.length (latencies phase)));
    ("goodput_windows", Json.List (Array.to_list (Array.map (fun r -> Json.Float r) phase.rates)));
    ("latency_ms",
      (let s = Stats.sorted (latencies phase) in
       Json.Obj
         (List.map
            (fun p -> (Printf.sprintf "p%g" (100.0 *. p), Json.Float (1e3 *. Stats.percentile s p)))
            [ 0.5; 0.9; 0.95; 0.99 ])));
    ("audit_records", Json.Int phase.audit.Cluster.records);
    ("audit_reads_checked", Json.Int (Oracle.reads_checked phase.audit.Cluster.oracle)) ]

let dir_for ctx name = Filename.concat ctx.Outcome.work_dir name

(* The end-to-end run: seven boots for the set-up median, the last one
   measured. *)
let end_to_end ctx =
  let setups = ref [] in
  let rec boots i =
    let dir = dir_for ctx (Printf.sprintf "boot%d" i) in
    let cluster, setup = boot ~dir ~seed:ctx.Outcome.seed () in
    setups := setup :: !setups;
    if i < 7 then begin
      Cluster.shutdown cluster;
      rm_rf dir;
      boots (i + 1)
    end
    else (cluster, dir)
  in
  let cluster, dir = boots 1 in
  let phase =
    measure cluster ~spans:ctx.Outcome.spans ~seed:(ctx.Outcome.seed + 1)
      ~seconds:ctx.Outcome.seconds
  in
  rm_rf dir;
  let lat = latencies phase in
  let tail = Stats.tail lat in
  let failed = failures phase.samples in
  { Outcome.checks = audit_checks phase.audit;
    attempted = Array.length phase.samples;
    failed;
    metrics =
      [ ("setup_s", Stats.median (Array.of_list !setups));
        ("peak_rss_mb", phase.peak_rss_mb);
        ("goodput_ops_s", Some phase.goodput);
        ("latency_p50_ms", Option.map (fun v -> v *. 1e3) (Stats.median lat));
        ("latency_tail_ms", Option.map (fun t -> t.Stats.value *. 1e3) tail) ];
    notes =
      notes phase
      @ [ ("setups_s", Json.List (List.rev_map (fun s -> Json.Float s) !setups));
          ("tail_percentile", Json.String (match tail with Some t -> Stats.tail_label t | None -> "none")) ] }

(* ------------------------------------------------------------------ *)
(* The traced run *)

(* The frames one operation puts on the wire, for timing [Wire.encode]
   and [Wire.decode] outside the service. *)
let frame_mix () =
  let key = "k123" and value = String.make value_bytes 'x' in
  let universe = Site_set.universe sites in
  let replica = Replica.make ~op_no:7 ~version:5 ~partition:universe in
  List.map
    (fun payload -> { Wire.src = 0; dst = 1; payload })
    [ Wire.Client_put { req = 9; key; value }; Wire.Client_get { req = 9; key };
      Wire.KLock_request { op = 7; keys = [ key ] }; Wire.Lock_reply { op = 7; granted = true };
      Wire.KState_request { round = 3; keys = [ key ] };
      Wire.KState_reply { round = 3; fresh = true; states = [ (key, replica) ] };
      Wire.KCommit { key; op_no = 7; version = 5; partition = universe; value = Some value; rid = 9 };
      Wire.Client_reply { req = 9; status = Wire.Granted; value = Some value; info = "" } ]

(* Mean nanoseconds per call of [f] over the mix, timed in bulk. *)
let ns_per_call mix f =
  let rounds = 20_000 in
  let t0 = Clock.now () in
  for _ = 1 to rounds do
    List.iter (fun x -> ignore (Sys.opaque_identity (f x))) mix
  done;
  (Clock.now () -. t0) *. 1e9 /. float_of_int (rounds * List.length mix)

(* Coordinator-side operation spans from the hub's trace ring: a
   [Round_start]/[Round_end] pair per admitted client operation. *)
let node_rounds spans ~ring_t0 ~from obs =
  let opened = Hashtbl.create 1024 in
  let durations = ref [] in
  List.iter
    (fun (t, ev) ->
      let at = ring_t0 +. t in
      match ev with
      | Trace.Round_start { site; op; _ } -> Hashtbl.replace opened (site, op) at
      | Trace.Round_end { site; op; _ } -> (
          match Hashtbl.find_opt opened (site, op) with
          | Some start when start >= from ->
              Hashtbl.remove opened (site, op);
              durations := (at -. start) :: !durations;
              Span.add spans ~track:site ~id:(Printf.sprintf "s%d.op%d" site op) ~start ~stop:at
                "node.op"
          | _ -> ())
      | (Trace.Lock_round_start { site; op } | Trace.Lock_denied { site; op }) when at >= from ->
          let name = match ev with Trace.Lock_denied _ -> "node.lock_denied" | _ -> "node.lock_round" in
          Span.add spans ~track:site ~id:(Printf.sprintf "s%d.lock%d" site op) ~start:at ~stop:at name
      | Trace.Commit_wave { site; op_no; _ } when at >= from ->
          Span.add spans ~track:site ~id:(Printf.sprintf "s%d.commit%d" site op_no) ~start:at ~stop:at
            "node.commit_wave"
      | _ -> ())
    (Trace.recent obs.Hub.trace);
  Array.of_list !durations

let per_layer ctx =
  let seed = ctx.Outcome.seed and seconds = ctx.Outcome.seconds and spans = ctx.Outcome.spans in
  (* The same phase untraced, for the tracing overhead. *)
  let plain_dir = dir_for ctx "plain" in
  let cluster, _ = boot ~dir:plain_dir ~seed () in
  let plain = measure cluster ~spans:(Span.create ~on:false) ~seed:(seed + 1) ~seconds in
  rm_rf plain_dir;
  let io =
    { fsyncs = Atomic.make 0; fsync_ns = Atomic.make 0; write_bytes = Atomic.make 0;
      busy_ns = Atomic.make 0 }
  in
  let obs = Hub.create ~trace_capacity:(1 lsl 18) () in
  let ring_t0 = Clock.now () in
  let dir = dir_for ctx "traced" in
  let cluster, _ = boot ~dir ~seed ~obs ~vfs_of:(timed_vfs io spans) () in
  List.iter (fun a -> Atomic.set a 0) [ io.fsyncs; io.fsync_ns; io.write_bytes; io.busy_ns ];
  let phase = measure cluster ~spans ~seed:(seed + 1) ~seconds in
  let fsyncs = Atomic.get io.fsyncs and fsync_ns = Atomic.get io.fsync_ns in
  let write_bytes = Atomic.get io.write_bytes and busy_ns = Atomic.get io.busy_ns in
  rm_rf dir;
  let ops = phase.granted in
  let b = phase.before and a = phase.after in
  let d name = List.assoc name a.ctrs - List.assoc name b.ctrs in
  let per name = Stats.per_op (d name) ~ops in
  let hmean name = Stats.window_mean ~before:(List.assoc name b.hists) ~after:(List.assoc name a.hists) in
  let wall = a.at -. b.at in
  let node_ops = node_rounds spans ~ring_t0 ~from:b.at obs in
  let node_p50 = Option.map (fun v -> v *. 1e3) (Stats.median node_ops) in
  let lat = latencies phase in
  let p50 = Option.map (fun v -> v *. 1e3) (Stats.median lat) in
  let failed = failures phase.samples in
  let mix = frame_mix () in
  let encoded = List.map Wire.encode mix in
  let cpu_ms f = Stats.ratio (1e3 *. (f a.cpu -. f b.cpu)) (float_of_int ops) in
  let opt_diff x y = match (x, y) with Some x, Some y -> Some (x - y) | _ -> None in
  let per_opt = function Some k -> Stats.per_op k ~ops | None -> None in
  let metrics =
    [ ("failed_share", Stats.failed_share ~attempted:(Array.length phase.samples) ~failed);
      ("trace_overhead_pct", Option.map (fun r -> (r -. 1.0) *. 100.0) (Stats.ratio plain.goodput phase.goodput));
      ("node.lock_rounds_per_op", per "live.lock.rounds");
      ("node.lock_denied_per_op", per "live.lock.denied");
      ("node.gather_rounds_per_op", per "live.gather.rounds");
      ("node.gather_reuse_ratio",
        Stats.ratio (float_of_int (d "live.gather.reused"))
          (float_of_int (d "live.gather.reused" + d "live.gather.rounds")));
      ("node.fetch_per_op", per "live.fetch.attempts");
      ("node.fetch_failure_ratio",
        Stats.ratio (float_of_int (d "live.fetch.failures")) (float_of_int (d "live.fetch.attempts")));
      ("node.commit_waves_per_op", per "live.commit.waves");
      ("node.commit_batch_mean", hmean "live.commit.batch");
      ("node.rounds_inflight_mean", hmean "live.rounds.inflight");
      ("node.group_batch_mean", hmean "live.shard.group.batch");
      ("node.op_p50_ms", node_p50);
      ("persist.fsyncs_per_op", Stats.per_op fsyncs ~ops);
      ("persist.fsync_ms_per_op", Option.map (fun x -> x /. 1e6) (Stats.per_op fsync_ns ~ops));
      ("persist.write_bytes_per_op", Stats.per_op write_bytes ~ops);
      ("persist.busy_share", Stats.ratio (float_of_int busy_ns /. 1e9) (wall *. float_of_int sites));
      ("switchboard.frames_per_op", per "net.frames.delivered");
      ("switchboard.client_hop_ms",
        match (p50, node_p50) with Some c, Some n -> Some (c -. n) | _ -> None);
      ("evloop.wakeups_per_op", per "net.loop.wakeups");
      ("evloop.batch_frames_mean", hmean "net.batch.frames");
      ("wire.encode_ns", Some (ns_per_call mix Wire.encode));
      ("wire.decode_ns", Some (ns_per_call encoded Wire.decode));
      ("shard_map.materialized_per_op", per "live.shard.materialized");
      ("shard_map.evicted_per_op", per "live.shard.evicted");
      ("proc.user_ms_per_op", cpu_ms fst);
      ("proc.sys_ms_per_op", cpu_ms snd);
      ("proc.syscalls_per_op", per_opt (opt_diff a.syscalls b.syscalls));
      ("proc.ctx_switches_per_op", per_opt (opt_diff a.switches b.switches));
      ("gc.minor_words_per_op", Stats.ratio (a.minor_words -. b.minor_words) (float_of_int ops)) ]
  in
  { Outcome.checks = audit_checks ~label:"plain_" plain.audit @ audit_checks ~label:"traced_" phase.audit;
    attempted = Array.length phase.samples;
    failed;
    metrics;
    notes =
      notes phase
      @ [ ("node_op_samples", Json.Int (Array.length node_ops));
          ("trace_ring_dropped", Json.Int (Trace.dropped obs.Hub.trace));
          ("untraced_goodput_ops_s", Json.Float plain.goodput);
          ("traced_goodput_ops_s", Json.Float phase.goodput) ] }
