(* The event-driven I/O layer, tested without timing or luck: frame
   reassembly under adversarial chunking through the Vio fake socket,
   EAGAIN/EINTR handling, write coalescing, the bounded-backpressure
   contract (a slow consumer is severed, never buffered without bound),
   deadline injection in Wire.recv, and the switchboard's stall reaper
   on a hand-cranked clock.  A second suite (serve-smoke) drives the
   real thing: >1024 concurrent connections through one broker loop and
   a pipelined coordinator holding several quorum rounds in flight. *)

open Helpers
module Wire = Dynvote_live.Wire
module Vio = Dynvote_live.Vio
module Evconn = Dynvote_live.Evconn
module Evloop = Dynvote_live.Evloop
module Switchboard = Dynvote_live.Switchboard
module Live = Dynvote_live.Cluster
module Loadgen = Dynvote_live.Loadgen
module Node = Dynvote_live.Node
module Hub = Dynvote_obs.Hub
module Metrics = Dynvote_obs.Metrics
module Trace = Dynvote_obs.Trace
module Manual = Dynvote_obs.Clock.Manual
module Oracle = Dynvote_chaos.Oracle

(* --- scratch directories -------------------------------------------- *)

let scratch_counter = ref 0

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let with_scratch f =
  incr scratch_counter;
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "dynvote-evloop-%d-%d" (Unix.getpid ()) !scratch_counter)
  in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* --- fixtures -------------------------------------------------------- *)

let sample_envelopes : Wire.envelope list =
  [
    { Wire.src = 0; dst = Wire.broker_id; payload = Wire.Hello_client };
    { Wire.src = 3; dst = 70; payload = Wire.Welcome { id = 70 } };
    {
      Wire.src = 70;
      dst = 1;
      payload = Wire.Client_put { req = 1; key = "k"; value = String.make 200 'v' };
    };
    { Wire.src = 70; dst = 2; payload = Wire.Client_get { req = 2; key = "key two" } };
    {
      Wire.src = 1;
      dst = 70;
      payload =
        Wire.Client_reply { req = 2; status = Wire.Granted; value = Some "v"; info = "" };
    };
    { Wire.src = 2; dst = 1; payload = Wire.KUnlock { op = 0x3_00_00_17; keys = [ "k" ] } };
  ]

let sample_stream =
  String.concat "" (List.map Wire.encode sample_envelopes)

(* Drain an Evconn until EOF, simulating one readiness event per call
   (a level-triggered loop re-signals leftover bytes). *)
let drive conn =
  let frames = ref [] and eof = ref false and iters = ref 0 in
  while (not !eof) && !iters < 100_000 do
    incr iters;
    let fs, status = Evconn.on_readable conn in
    List.iter (fun f -> frames := f :: !frames) fs;
    if status = `Eof then eof := true
  done;
  (List.rev !frames, !eof)

let oks frames =
  List.map
    (function Ok env -> env | Error e -> Alcotest.failf "decode error: %s" e)
    frames

(* --- frame reassembly under adversarial chunking --------------------- *)

(* Any way of splitting the byte stream — chunk boundaries anywhere,
   spurious wakeups and EINTR interleaved, a read(2) that returns as
   little as one byte — must reassemble exactly the original frames in
   order.  The chunk sizes and noise pattern are qcheck's to choose. *)
let prop_chunked_reassembly =
  qcheck_case ~count:300 ~name:"adversarial chunking reassembles exactly"
    QCheck.(pair (list_of_size Gen.(int_range 1 30) (int_range 1 50)) int)
    (fun (sizes, noise) ->
      let sizes = if sizes = [] then [ 7 ] else sizes in
      let noise = abs noise in
      (* Cut the stream into chunks, cycling through [sizes]. *)
      let script = ref [] and pos = ref 0 and i = ref 0 in
      let n = String.length sample_stream in
      while !pos < n do
        let size = min (List.nth sizes (!i mod List.length sizes)) (n - !pos) in
        script := Vio.Fake.Chunk (String.sub sample_stream !pos size) :: !script;
        (* Interleave spurious wakeups and interrupts from the noise bits. *)
        (match (noise lsr (!i mod 20)) land 3 with
        | 1 -> script := Vio.Fake.Again :: !script
        | 2 -> script := Vio.Fake.Intr :: !script
        | _ -> ());
        pos := !pos + size;
        incr i
      done;
      let script = List.rev (Vio.Fake.Eof :: !script) in
      let read_cap = if noise land 1 = 0 then max_int else 1 + (noise lsr 1) land 15 in
      let fake = Vio.Fake.create ~script ~read_cap () in
      let conn = Evconn.create (Vio.Fake.vio fake) in
      let frames, eof = drive conn in
      eof && oks frames = sample_envelopes)

let test_decoder_byte_by_byte () =
  let dec = Wire.Decoder.create () in
  let got = ref [] in
  String.iter
    (fun c ->
      Wire.Decoder.feed_string dec (String.make 1 c);
      let rec pull () =
        match Wire.Decoder.next dec with
        | Some (Ok env) ->
            got := env :: !got;
            pull ()
        | Some (Error e) -> Alcotest.failf "decode error: %s" e
        | None -> ()
      in
      pull ())
    sample_stream;
  Alcotest.(check bool) "all frames recovered" true
    (List.rev !got = sample_envelopes);
  Alcotest.(check int) "no residue" 0 (Wire.Decoder.buffered dec)

let test_spurious_wakeup () =
  let fake = Vio.Fake.create ~script:[ Vio.Fake.Again ] () in
  let conn = Evconn.create (Vio.Fake.vio fake) in
  let frames, status = Evconn.on_readable conn in
  Alcotest.(check bool) "no frames from a spurious wakeup" true (frames = []);
  Alcotest.(check bool) "connection stays open" true (status = `Open);
  Alcotest.(check int) "exactly one read attempted" 1 (Vio.Fake.reads fake);
  (* The bytes arrive later: the same connection picks them up. *)
  Vio.Fake.feed fake [ Vio.Fake.Chunk sample_stream; Vio.Fake.Eof ];
  let frames, eof = drive conn in
  Alcotest.(check bool) "frames after the real wakeup" true
    (eof && oks frames = sample_envelopes)

let test_eintr_read_retried () =
  (* EINTR is retried within the same readiness event, not treated as
     data or EOF. *)
  let env = List.hd sample_envelopes in
  let fake =
    Vio.Fake.create
      ~script:[ Vio.Fake.Intr; Vio.Fake.Chunk (Wire.encode env); Vio.Fake.Intr; Vio.Fake.Eof ]
      ()
  in
  let conn = Evconn.create (Vio.Fake.vio fake) in
  let frames, eof = drive conn in
  Alcotest.(check bool) "frame recovered through EINTR" true
    (eof && oks frames = [ env ])

let test_corrupt_stream_detected () =
  let good = Wire.encode (List.hd sample_envelopes) in
  let bad = Bytes.of_string (Wire.encode (List.nth sample_envelopes 2)) in
  (* Flip a payload byte: framing stays aligned, the checksum must not. *)
  let i = Bytes.length bad - 1 in
  Bytes.set bad i (Char.chr (Char.code (Bytes.get bad i) lxor 0x40));
  let fake =
    Vio.Fake.create
      ~script:[ Vio.Fake.Chunk (good ^ Bytes.to_string bad); Vio.Fake.Eof ]
      ()
  in
  let conn = Evconn.create (Vio.Fake.vio fake) in
  let frames, _ = drive conn in
  match frames with
  | [ Ok env; Error _ ] ->
      Alcotest.(check bool) "good frame precedes the corruption" true
        (env = List.hd sample_envelopes)
  | _ -> Alcotest.failf "expected [Ok; Error], got %d frames" (List.length frames)

(* --- write side: coalescing, short writes, EINTR --------------------- *)

let test_write_coalescing () =
  (* Frames enqueued while the peer is busy leave in one write call —
     the writev effect the outbound queue exists for. *)
  let fake = Vio.Fake.create ~write_credit:0 () in
  let conn = Evconn.create (Vio.Fake.vio fake) in
  List.iter
    (fun env ->
      Alcotest.(check bool) "enqueue accepted" true (Evconn.enqueue conn env = `Ok))
    sample_envelopes;
  Alcotest.(check bool) "blocked with zero credit" true (Evconn.flush conn = `Blocked);
  Alcotest.(check bool) "write interest wanted" true (Evconn.want_write conn);
  Alcotest.(check int) "all frames staged" (List.length sample_envelopes)
    (Evconn.queued_frames conn);
  Vio.Fake.grant fake max_int;
  let before = Vio.Fake.writes fake in
  Alcotest.(check bool) "drained" true (Evconn.flush conn = `Idle);
  Alcotest.(check int) "one write call carried every frame" 1
    (Vio.Fake.writes fake - before);
  Alcotest.(check int) "frames_out counts the batch" (List.length sample_envelopes)
    (Evconn.frames_out conn);
  Alcotest.(check bool) "the wire bytes are the frames, in order" true
    (Vio.Fake.written fake = sample_stream)

let test_short_writes_and_eintr () =
  (* A sink accepting 7 bytes at a time, with an EINTR thrown in: flush
     makes progress on every grant and the byte stream is unharmed. *)
  let fake = Vio.Fake.create ~write_credit:7 ~write_script:[ Vio.Fake.Intr ] () in
  let conn = Evconn.create (Vio.Fake.vio fake) in
  List.iter
    (fun env -> ignore (Evconn.enqueue conn env : [ `Ok | `Overflow ]))
    sample_envelopes;
  let guard = ref 0 in
  let rec pump () =
    incr guard;
    if !guard > 10_000 then Alcotest.fail "flush made no progress";
    match Evconn.flush conn with
    | `Idle -> ()
    | `Blocked ->
        Vio.Fake.grant fake 7;
        pump ()
    | `Closed -> Alcotest.fail "healthy sink reported closed"
  in
  pump ();
  Alcotest.(check bool) "short writes preserve the stream" true
    (Vio.Fake.written fake = sample_stream)

(* --- bounded backpressure -------------------------------------------- *)

let test_backpressure_overflow_severs () =
  (* The contract: a slow consumer's queue is bounded; past the bound
     the connection dies ([`Overflow], then [`Closed]) rather than the
     process buffering without limit or a frame silently vanishing. *)
  let max_queue = 2_000 in
  let fake = Vio.Fake.create ~write_credit:0 () in
  let conn = Evconn.create ~max_queue (Vio.Fake.vio fake) in
  let env = List.nth sample_envelopes 2 (* the 200-byte put *) in
  let overflowed = ref false and attempts = ref 0 in
  while (not !overflowed) && !attempts < 1_000 do
    incr attempts;
    (match Evconn.enqueue conn env with
    | `Ok -> ()
    | `Overflow -> overflowed := true);
    Alcotest.(check bool) "staged bytes never exceed the bound" true
      (Evconn.pending_bytes conn <= max_queue)
  done;
  Alcotest.(check bool) "a slow consumer eventually overflows" true !overflowed;
  Alcotest.(check bool) "the connection is poisoned" true
    (Evconn.flush conn = `Closed);
  Alcotest.(check bool) "later frames are refused, not dropped silently" true
    (Evconn.enqueue conn env = `Overflow);
  (* A fast peer on its own connection is unaffected. *)
  let fast = Vio.Fake.create () in
  let fconn = Evconn.create ~max_queue (Vio.Fake.vio fast) in
  Alcotest.(check bool) "fast peer accepts" true (Evconn.enqueue fconn env = `Ok);
  Alcotest.(check bool) "fast peer drains" true (Evconn.flush fconn = `Idle);
  Alcotest.(check bool) "fast peer got the frame" true
    (Vio.Fake.written fast = Wire.encode env)

let test_peer_gone_poisons () =
  let fake = Vio.Fake.create ~write_script:[ Vio.Fake.Eof ] () in
  let conn = Evconn.create (Vio.Fake.vio fake) in
  ignore (Evconn.enqueue conn (List.hd sample_envelopes) : [ `Ok | `Overflow ]);
  Alcotest.(check bool) "EPIPE closes the connection" true
    (Evconn.flush conn = `Closed);
  Alcotest.(check bool) "enqueue after the peer died overflows" true
    (Evconn.enqueue conn (List.hd sample_envelopes) = `Overflow)

(* --- Wire.recv deadlines on an injected clock ------------------------ *)

let test_recv_deadline_injected_clock () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () ->
      let conn = Wire.conn a in
      let clk = Manual.create () in
      let clock () = Manual.read clk in
      (* The deadline is a reading of the injected clock: with the clock
         already past it, recv times out immediately — no wall-clock wait,
         no dependence on the blocking-read path the rewrite removed. *)
      Manual.set clk 5.0;
      (match Wire.recv ~clock ~deadline:1.0 conn with
      | Error `Timeout -> ()
      | Ok _ | Error _ -> Alcotest.fail "expired deadline did not time out");
      (* With time before the deadline and a frame on the wire, recv
         delivers it. *)
      Manual.set clk 0.0;
      let env = List.hd sample_envelopes in
      Wire.send (Wire.conn b) env;
      match Wire.recv ~clock ~deadline:4.0 conn with
      | Ok got -> Alcotest.(check bool) "frame delivered" true (got = env)
      | Error _ -> Alcotest.fail "frame not delivered before deadline")

(* --- the switchboard's stall reaper on a hand-cranked clock ----------- *)

let test_stall_reaper_clock_step () =
  let clk = Manual.create () in
  let sb =
    Switchboard.create
      ~clock:(fun () -> Manual.read clk)
      ~stall_timeout:1.0 ~universe:(ss [ 0 ])
      ~segment_of:(fun s -> s)
      ()
  in
  Fun.protect
    ~finally:(fun () -> Switchboard.shutdown sb)
    (fun () ->
      let connect () =
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.connect fd
          (Unix.ADDR_INET (Unix.inet_addr_loopback, Switchboard.port sb));
        fd
      in
      let severed fd =
        (* Wait (real time, bounded) for the broker loop to act, then
           look for EOF. *)
        match Evloop.wait_fd fd ~read:true ~write:false ~timeout:5.0 with
        | None -> false
        | Some _ -> (
            match Unix.read fd (Bytes.create 64) 0 64 with
            | 0 -> true
            | _ -> false
            | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
                true)
      in
      (* A slow-loris client: says Hello, then opens a frame and stops
         feeding it. *)
      let loris = connect () in
      let wc = Wire.conn loris in
      Wire.send wc
        { Wire.src = 0; dst = Wire.broker_id; payload = Wire.Hello_client };
      (match Wire.recv ~deadline:(Dynvote_obs.Clock.now () +. 5.0) wc with
      | Ok { Wire.payload = Wire.Welcome _; _ } -> ()
      | _ -> Alcotest.fail "no welcome");
      let frame = Wire.encode { Wire.src = 0; dst = 0; payload = Wire.Hello_client } in
      let half = String.length frame / 2 in
      ignore (Unix.write_substring loris frame 0 half : int);
      (* A mute connection: never completes a Hello. *)
      let mute = connect () in
      (* Give the broker a real-time beat to read the partial frame, then
         step the injected clock past the stall budget.  Nothing here
         depends on how long the *wall* wait was. *)
      Unix.sleepf 0.2;
      Manual.set clk 10.0;
      Alcotest.(check bool) "half-fed frame reaped on the injected clock" true
        (severed loris);
      Alcotest.(check bool) "pre-hello connection reaped" true (severed mute);
      (try Unix.close loris with Unix.Unix_error _ -> ());
      try Unix.close mute with Unix.Unix_error _ -> ())

(* ===== serve-smoke: the real thing at scale ========================== *)

(* FD_SETSIZE is 1024; the readiness loop must not care.  Well over a
   thousand concurrent clients hold connections through one broker loop
   and every one of them completes a Hello/Welcome exchange. *)
let test_many_concurrent_connections () =
  let n = 1_200 in
  ignore (Evloop.raise_fd_limit ((2 * n) + 512) : int);
  let sb =
    Switchboard.create ~universe:(ss [ 0 ]) ~segment_of:(fun s -> s) ()
  in
  let socks = ref [] in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        !socks;
      Switchboard.shutdown sb)
    (fun () ->
      let ids = Hashtbl.create n in
      for i = 1 to n do
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        socks := fd :: !socks;
        Unix.connect fd
          (Unix.ADDR_INET (Unix.inet_addr_loopback, Switchboard.port sb));
        Unix.setsockopt fd Unix.TCP_NODELAY true;
        let conn = Wire.conn fd in
        Wire.send conn
          { Wire.src = 0; dst = Wire.broker_id; payload = Wire.Hello_client };
        match Wire.recv ~deadline:(Dynvote_obs.Clock.now () +. 10.0) conn with
        | Ok { Wire.payload = Wire.Welcome { id }; _ } ->
            if Hashtbl.mem ids id then
              Alcotest.failf "client id %d handed out twice" id;
            Hashtbl.replace ids id ()
        | Ok env ->
            Alcotest.failf "connection %d: expected Welcome, got %s" i
              (Wire.kind_name env.Wire.payload)
        | Error _ -> Alcotest.failf "connection %d of %d got no Welcome" i n
      done;
      (* Every connection is still open and registered: all n sockets
         held Welcomes concurrently, far past FD_SETSIZE. *)
      Alcotest.(check int) "distinct ids for every concurrent client" n
        (Hashtbl.length ids))

(* A pipelined coordinator must actually overlap quorum rounds: the
   trace ring records Round_start with the concurrent-round count, and
   the live.rounds.inflight histogram has the same fact in aggregate.
   Closed-loop mux clients all target one coordinator so admission can
   overlap; the audit at the end proves overlap cost no safety. *)
let test_pipelined_rounds_in_flight () =
  let pipelined_config =
    {
      Node.gather_timeout = 0.05;
      retries = 1;
      backoff = 2.0;
      lock_lease = 1.0;
      lock_retries = 6;
      lock_backoff = 0.02;
      durable = false;
      clock = Dynvote_obs.Clock.now;
      pipeline = 4;
      max_reuse = 16;
      shards = 0;
      resident = 4096;
    }
  in
  let found = ref false and attempts = ref 0 in
  while (not !found) && !attempts < 3 do
    incr attempts;
    with_scratch (fun dir ->
        let obs = Hub.create ~trace_capacity:65536 () in
        let cluster =
          Live.create ~config:pipelined_config ~obs ~client_timeout:3.0
            ~universe:(ss [ 0; 1; 2; 3 ]) ~dir ()
        in
        Fun.protect
          ~finally:(fun () -> Live.shutdown cluster)
          (fun () ->
            let r =
              Loadgen.run cluster
                {
                  Loadgen.default with
                  Loadgen.clients = 8;
                  duration = 0.5;
                  seed = 7 + !attempts;
                  mode = `Mux;
                  sites = Some (Site_set.singleton 0);
                }
            in
            let granted =
              r.Loadgen.reads.Loadgen.granted + r.Loadgen.writes.Loadgen.granted
            in
            let hist_max =
              Metrics.histogram_max
                (Metrics.histogram obs.Hub.metrics "live.rounds.inflight")
            in
            let trace_hit =
              List.exists
                (fun (_, e) ->
                  match e with
                  | Trace.Round_start { in_flight; _ } -> in_flight >= 2
                  | _ -> false)
                (Trace.recent obs.Hub.trace)
            in
            let audit = Live.check cluster in
            List.iter
              (fun v -> Alcotest.failf "pipelined run: %a" Oracle.pp_violation v)
              (Oracle.violations audit.Live.oracle);
            Alcotest.(check int) "no duplicate applies" 0 audit.Live.dup_applies;
            if granted > 0 && hist_max >= 2.0 && trace_hit then found := true))
  done;
  Alcotest.(check bool)
    "trace ring shows >= 2 quorum rounds in flight at the coordinator" true
    !found

let suite =
  [
    prop_chunked_reassembly;
    Alcotest.test_case "decoder, one byte at a time" `Quick test_decoder_byte_by_byte;
    Alcotest.test_case "spurious wakeup reads nothing" `Quick test_spurious_wakeup;
    Alcotest.test_case "EINTR on read retried" `Quick test_eintr_read_retried;
    Alcotest.test_case "corrupt stream detected in order" `Quick
      test_corrupt_stream_detected;
    Alcotest.test_case "writes coalesce into one call" `Quick test_write_coalescing;
    Alcotest.test_case "short writes and EINTR on write" `Quick
      test_short_writes_and_eintr;
    Alcotest.test_case "backpressure: overflow severs, bound holds" `Quick
      test_backpressure_overflow_severs;
    Alcotest.test_case "dead peer poisons the queue" `Quick test_peer_gone_poisons;
    Alcotest.test_case "recv deadline on an injected clock" `Quick
      test_recv_deadline_injected_clock;
    Alcotest.test_case "stall reaper fires on a clock step" `Quick
      test_stall_reaper_clock_step;
  ]

let serve_suite =
  [
    Alcotest.test_case "1200 concurrent connections" `Quick
      test_many_concurrent_connections;
    Alcotest.test_case "pipelined coordinator overlaps rounds" `Quick
      test_pipelined_rounds_in_flight;
  ]
