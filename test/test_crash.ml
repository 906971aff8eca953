(* Storage fault injection and crash recovery: the fault-injecting
   filesystem's durability model (lying fsyncs, lost renames, short
   writes, seeded crash truncation), oplog scan forensics (torn tails
   vs. mid-log corruption), degraded-mode fencing, exactly-once client
   retries, the slow-loris wire guard, and a slice of the crash-point
   recovery matrix. *)

module Wire = Dynvote_live.Wire
module Persist = Dynvote_live.Persist
module Live = Dynvote_live.Cluster
module Node = Dynvote_live.Node
module Crash_matrix = Dynvote_live.Crash_matrix
module Faultfs = Dynvote_faultfs.Faultfs
module Shard_store = Dynvote_shard.Shard_store
module Storage = Dynvote_chaos.Fault_plan.Storage
module Oracle = Dynvote_chaos.Oracle
module Hub = Dynvote_obs.Hub
module Metrics = Dynvote_obs.Metrics

let ss = Site_set.of_list

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
      (Printf.sprintf "dynvote-crash-%d-%d" (Unix.getpid ()) !scratch_counter)
  in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path content =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc content)

(* Write [content] through a vfs with full fsync discipline. *)
let vfs_write (vfs : Vfs.t) path content =
  let f = vfs.Vfs.create path in
  let buf = Bytes.of_string content in
  let len = Bytes.length buf in
  let written = ref 0 in
  while !written < len do
    written := !written + f.Vfs.write buf !written (len - !written)
  done;
  f.Vfs.fsync ();
  f.Vfs.close ()

(* --- the faultfs durability model ------------------------------------ *)

let test_faultfs_fsync_lie () =
  with_scratch (fun dir ->
      let path = Filename.concat dir "shard-0.dvl" in
      let ff = Faultfs.create ~seed:3 () in
      let vfs = Faultfs.vfs ff in
      vfs_write vfs path "first";
      (* The rewrite's fsync lies: success reported, nothing promoted. *)
      Faultfs.arm_next ff { Storage.fault = Storage.Fsync_lie;
                           file = Storage.Shard; op = Storage.Fsync; nth = 1 };
      vfs_write vfs path "second";
      Alcotest.(check string) "cache holds the lie" "second" (read_file path);
      Faultfs.simulate_crash ff;
      Alcotest.(check string) "power cut exposes the lie" "first"
        (read_file path);
      Alcotest.(check (list (pair string int))) "one injection"
        [ ("fsync-lie", 1) ] (Faultfs.injected ff))

let test_faultfs_rename_loss () =
  with_scratch (fun dir ->
      let dst = Filename.concat dir "shard-0.dvl" in
      let tmp = dst ^ ".tmp" in
      write_file dst "old";
      let ff = Faultfs.create () in
      let vfs = Faultfs.vfs ff in
      (* The atomic-replace dance, with the directory fsync dropped. *)
      vfs_write vfs tmp "new";
      vfs.Vfs.rename ~src:tmp ~dst;
      Faultfs.arm_next ff { Storage.fault = Storage.Rename_loss;
                           file = Storage.Shard; op = Storage.Fsync_dir; nth = 1 };
      vfs.Vfs.fsync_dir dir;
      Alcotest.(check string) "rename visible before the cut" "new"
        (read_file dst);
      Faultfs.simulate_crash ff;
      Alcotest.(check string) "lost rename undone: target reverts" "old"
        (read_file dst);
      Alcotest.(check string) "temp file restored" "new" (read_file tmp))

let test_faultfs_unsynced_rename_empty () =
  with_scratch (fun dir ->
      let dst = Filename.concat dir "shard-0.dvl" in
      let tmp = dst ^ ".tmp" in
      write_file dst "old";
      let ff = Faultfs.create () in
      let vfs = Faultfs.vfs ff in
      (* Rename an un-fsynced source, then durably fsync the directory:
         the name switch survives the crash, the bytes do not. *)
      let f = vfs.Vfs.create tmp in
      let buf = Bytes.of_string "new" in
      ignore (f.Vfs.write buf 0 3 : int);
      f.Vfs.close ();
      vfs.Vfs.rename ~src:tmp ~dst;
      vfs.Vfs.fsync_dir dir;
      Faultfs.simulate_crash ff;
      Alcotest.(check string) "durably renamed unsynced source: empty target"
        "" (read_file dst))

let test_faultfs_short_write_poison () =
  with_scratch (fun dir ->
      let path = Filename.concat dir "oplog.dvl" in
      let ff = Faultfs.create () in
      let vfs = Faultfs.vfs ff in
      Faultfs.arm_next ff { Storage.fault = Storage.Short_write;
                           file = Storage.Oplog; op = Storage.Write; nth = 1 };
      let f = vfs.Vfs.append path in
      let buf = Bytes.of_string "0123456789" in
      Alcotest.(check int) "half the bytes land" 5 (f.Vfs.write buf 0 10);
      (match f.Vfs.write buf 5 5 with
      | _ -> Alcotest.fail "write on a failed device succeeded"
      | exception Vfs.Fault _ -> ());
      f.Vfs.close ();
      Alcotest.(check string) "partial bytes visible" "01234" (read_file path))

let test_faultfs_crash_truncation_deterministic () =
  (* Same seed, same operation stream: the surviving prefix of the
     unsynced append suffix must be identical across runs. *)
  let run () =
    with_scratch (fun dir ->
        let path = Filename.concat dir "oplog.dvl" in
        let ff = Faultfs.create ~seed:11 () in
        let vfs = Faultfs.vfs ff in
        let f = vfs.Vfs.append path in
        let durable = Bytes.of_string "DURABLE." in
        let w buf =
          let written = ref 0 in
          while !written < Bytes.length buf do
            written :=
              !written + f.Vfs.write buf !written (Bytes.length buf - !written)
          done
        in
        w durable;
        f.Vfs.fsync ();
        w (Bytes.of_string (String.init 64 (fun i -> Char.chr (65 + (i mod 26)))));
        f.Vfs.close ();
        Faultfs.simulate_crash ff;
        read_file path)
  in
  let a = run () and b = run () in
  Alcotest.(check string) "identical surviving prefix" a b;
  Alcotest.(check bool) "durable prefix intact" true
    (String.length a >= 8 && String.sub a 0 8 = "DURABLE.");
  Alcotest.(check bool) "unsynced suffix trimmed" true (String.length a < 72)

(* --- oplog scan forensics -------------------------------------------- *)

let sample_records =
  Persist.
    [
      Log_commit { seq = 1; key = ""; op_no = 2; version = 2;
                   partition = ss [ 0; 1 ]; rid = 77 };
      Log_intent { seq = 2; key = ""; content = String.make 32 'i' };
      Log_outcome { seq = 3; key = ""; kind = `Write; granted = true;
                    content = Some "blob"; rid = 77 };
    ]

let write_log path records =
  let log = Persist.open_log ~path () in
  List.iter (Persist.append log) records;
  Persist.close_log log

(* Byte length of the frames for a record-list prefix, measured the only
   honest way: write them and stat. *)
let log_size dir records =
  let path = Filename.concat dir "measure.dvl" in
  (try Sys.remove path with Sys_error _ -> ());
  write_log path records;
  let n = (Unix.stat path).Unix.st_size in
  Sys.remove path;
  n

let take n l = List.filteri (fun i _ -> i < n) l

let test_scan_midlog_corruption () =
  with_scratch (fun dir ->
      let path = Filename.concat dir "oplog.dvl" in
      write_log path sample_records;
      let clean = Persist.scan_log ~path () in
      Alcotest.(check int) "clean scan: all records" 3
        (List.length clean.Persist.records);
      Alcotest.(check int) "clean scan: full valid prefix"
        (String.length (read_file path)) clean.Persist.valid_prefix;
      (* Flip one payload byte of the SECOND record: a hole in the middle
         of the history, with an intact record after it. *)
      let raw = Bytes.of_string (read_file path) in
      let r1 = log_size dir (take 1 sample_records) in
      let r2 = log_size dir (take 2 sample_records) - r1 in
      let mid = r1 + (r2 / 2) in
      Bytes.set raw mid (Char.chr (Char.code (Bytes.get raw mid) lxor 0x40));
      write_file path (Bytes.to_string raw);
      let scan = Persist.scan_log ~path () in
      Alcotest.(check int) "mid-log corruption counted" 1 scan.Persist.corrupt;
      Alcotest.(check bool) "not reported as torn" false scan.Persist.torn;
      Alcotest.(check int) "intact records survive" 2
        (List.length scan.Persist.records);
      Alcotest.(check int) "valid prefix stops at the damage" r1
        scan.Persist.valid_prefix;
      let _, damaged = Persist.read_log ~path in
      Alcotest.(check bool) "read_log reports damage" true damaged)

(* Two damaged frames at the tail, both length prefixes intact: nothing
   intact follows the damage, so the oplog calls it a torn tail, not a
   hole, and the valid prefix ends before the first damaged frame. *)
let test_scan_two_trailing_damaged () =
  with_scratch (fun dir ->
      let path = Filename.concat dir "oplog.dvl" in
      write_log path sample_records;
      let raw = Bytes.of_string (read_file path) in
      let r1 = log_size dir (take 1 sample_records) in
      let r2 = log_size dir (take 2 sample_records) in
      List.iter
        (fun off -> Bytes.set raw off (Char.chr (Char.code (Bytes.get raw off) lxor 0x01)))
        [ r1 + 12; r2 + 12 ];
      write_file path (Bytes.to_string raw);
      let scan = Persist.scan_log ~path () in
      Alcotest.(check bool) "torn" true scan.Persist.torn;
      Alcotest.(check int) "no mid-log corruption" 0 scan.Persist.corrupt;
      Alcotest.(check int) "the intact record survives" 1
        (List.length scan.Persist.records);
      Alcotest.(check int) "valid prefix ends before the first damaged frame" r1
        scan.Persist.valid_prefix)

(* A length prefix too short to hold the magic and checksum is damage
   like any other, never an exception out of the scan — in the oplog and
   in a shard log alike. *)
let test_scan_short_frame () =
  with_scratch (fun dir ->
      let path = Filename.concat dir "oplog.dvl" in
      write_log path sample_records;
      write_file path (read_file path ^ "\005\000\000\000DVO1\000");
      let scan = Persist.scan_log ~path () in
      Alcotest.(check bool) "oplog: torn" true scan.Persist.torn;
      Alcotest.(check int) "oplog: records before it survive" 3
        (List.length scan.Persist.records);
      let store, _ = Shard_store.open_store ~dir ~site:0 ~shards:1 () in
      Shard_store.close store;
      let shard = Filename.concat (Shard_store.shards_dir ~dir ~site:0) "shard-0.dvl" in
      write_file shard "\005\000\000\000DVS1\000";
      let store, scan = Shard_store.open_store ~dir ~site:0 ~shards:1 () in
      Shard_store.close store;
      Alcotest.(check int) "shard: torn" 1 scan.Shard_store.torn_shards;
      Alcotest.(check int) "shard: cut back to empty" 0 (String.length (read_file shard)))

let test_scan_torn_tail_truncate_append () =
  with_scratch (fun dir ->
      let path = Filename.concat dir "oplog.dvl" in
      write_log path sample_records;
      let full = read_file path in
      (* Tear mid-record-3, as a power cut would. *)
      write_file path (String.sub full 0 (String.length full - 4));
      let scan = Persist.scan_log ~path () in
      Alcotest.(check bool) "torn" true scan.Persist.torn;
      Alcotest.(check int) "no mid-log corruption" 0 scan.Persist.corrupt;
      Alcotest.(check int) "prefix records survive" 2
        (List.length scan.Persist.records);
      let r2_end = log_size dir (take 2 sample_records) in
      Alcotest.(check int) "valid prefix = end of last intact record" r2_end
        scan.Persist.valid_prefix;
      (* The recovery discipline: truncate to the valid prefix, then
         append — the new record must NOT read as mid-log corruption. *)
      Vfs.real.Vfs.truncate path scan.Persist.valid_prefix;
      write_log path
        [ Persist.Log_outcome { seq = 4; key = ""; kind = `Read; granted = true;
                                content = None; rid = 0 } ];
      let rescan = Persist.scan_log ~path () in
      Alcotest.(check int) "appended over the cut cleanly" 0
        rescan.Persist.corrupt;
      Alcotest.(check bool) "no tear left" false rescan.Persist.torn;
      Alcotest.(check int) "three records" 3
        (List.length rescan.Persist.records))

(* --- live clusters under storage faults ------------------------------ *)

let u4 = ss [ 0; 1; 2; 3 ]

(* Durable persistence ON: these tests are about stable storage. *)
let crash_config =
  {
    Node.default_config with
    Node.gather_timeout = 0.05;
    lock_lease = 1.0;
    lock_retries = 6;
    lock_backoff = 0.02;
  }

let check_status name expected (reply : Live.reply) =
  let s = function
    | Wire.Granted -> "granted"
    | Wire.Denied -> "denied"
    | Wire.Aborted -> "aborted"
    | Wire.Degraded -> "degraded"
  in
  Alcotest.(check string)
    (Printf.sprintf "%s (info: %s)" name reply.Live.info)
    (s expected) (s reply.Live.status)

let test_degraded_fencing () =
  with_scratch (fun dir ->
      let ff = Faultfs.create ~seed:5 () in
      let vfs_of site = if site = 0 then Faultfs.vfs ff else Vfs.real in
      let hub = Hub.create () in
      let cluster =
        Live.create ~config:crash_config ~client_timeout:1.5 ~obs:hub ~vfs_of
          ~universe:u4 ~dir ()
      in
      Fun.protect ~finally:(fun () -> Live.shutdown cluster) (fun () ->
          let c = Live.client cluster in
          check_status "baseline" Wire.Granted
            (Live.put c ~at:0 ~key:"a" ~value:"1");
          (* Site 0's next shard fsync fails: the self-apply of its own
             coordinated write cannot persist, so it must fence itself
             and hand the write to its peers via the client's retry. *)
          Faultfs.arm_next ff { Storage.fault = Storage.Eio;
                               file = Storage.Shard; op = Storage.Fsync; nth = 1 };
          let r = Live.put ~retries:3 c ~at:0 ~key:"a" ~value:"2" in
          check_status "retried write lands" Wire.Granted r;
          Alcotest.(check bool) "retry hopped sites" true (r.Live.retries > 0);
          Alcotest.(check bool) "site 0 fenced" true
            (Live.degraded cluster 0 <> None);
          (* Fenced: writes refused loudly, reads visibly degraded. *)
          check_status "fenced write refused" Wire.Degraded
            (Live.put c ~at:0 ~key:"b" ~value:"x");
          let g = Live.get c ~at:0 ~key:"a" in
          check_status "fenced read is marked" Wire.Degraded g;
          check_status "healthy site still serves" Wire.Granted
            (Live.put c ~at:1 ~key:"b" ~value:"y");
          let m = hub.Hub.metrics in
          Alcotest.(check bool) "storage fault counted" true
            (Metrics.counter_value (Metrics.counter m "live.storage.faults") > 0);
          Alcotest.(check bool) "degraded entry counted" true
            (Metrics.counter_value (Metrics.counter m "live.degraded.entered") > 0);
          (* A reboot clears the fence (the disk "recovered"); RECOVER
             rejoins, and the site serves again. *)
          Live.restart cluster 0;
          check_status "recover after reboot" Wire.Granted
            (Live.recover_site c 0);
          let g = Live.get c ~at:0 ~key:"a" in
          check_status "read after reboot" Wire.Granted g;
          Alcotest.(check (option string)) "value converged" (Some "2")
            g.Live.value;
          let audit = Live.check cluster in
          Alcotest.(check int) "no double applies" 0 audit.Live.dup_applies;
          Alcotest.(check bool) "oracle safe" true
            (Oracle.is_safe audit.Live.oracle)))

let test_boot_fences_on_midlog_corruption () =
  with_scratch (fun dir ->
      let cluster =
        Live.create ~config:crash_config ~client_timeout:1.5 ~universe:u4 ~dir ()
      in
      Fun.protect ~finally:(fun () -> Live.shutdown cluster) (fun () ->
          let c = Live.client cluster in
          check_status "w1" Wire.Granted (Live.put c ~at:2 ~key:"a" ~value:"1");
          check_status "w2" Wire.Granted (Live.put c ~at:2 ~key:"a" ~value:"2");
          Live.kill cluster 2;
          (* Rot one byte inside the FIRST record of site 2's log —
             damage with intact records after it, which no crash can
             explain (a torn tail only ever eats the end). *)
          let path = Persist.oplog_path ~dir 2 in
          let raw = Bytes.of_string (read_file path) in
          Bytes.set raw 12 (Char.chr (Char.code (Bytes.get raw 12) lxor 0x01));
          write_file path (Bytes.to_string raw);
          Live.restart cluster 2;
          Alcotest.(check bool) "booted fenced" true
            (Live.degraded cluster 2 <> None);
          check_status "fenced site refuses writes" Wire.Degraded
            (Live.put c ~at:2 ~key:"a" ~value:"3");
          check_status "cluster keeps serving" Wire.Granted
            (Live.put c ~at:0 ~key:"a" ~value:"3");
          let audit = Live.check cluster in
          Alcotest.(check bool) "audit sees the rot" true
            (audit.Live.corrupt > 0)))

let test_exactly_once_retry () =
  with_scratch (fun dir ->
      let cluster =
        Live.create ~config:crash_config ~client_timeout:0.8 ~universe:u4 ~dir ()
      in
      Fun.protect ~finally:(fun () -> Live.shutdown cluster) (fun () ->
          let c = Live.client cluster in
          check_status "seed" Wire.Granted (Live.put c ~at:0 ~key:"a" ~value:"1");
          (* Kill coordinator 0 after its LAST commit send: the write is
             fully applied everywhere, but the client never hears.  The
             ambiguous retry re-coordinates at site 1 under the same
             request number — the dedup table must acknowledge, not
             re-apply. *)
          Live.strike_after cluster 0 4;
          let r = Live.put ~retries:3 c ~at:0 ~key:"a" ~value:"2" in
          check_status "retry acknowledges the committed write" Wire.Granted r;
          Alcotest.(check bool) "exactly one hop" true (r.Live.retries >= 1);
          Alcotest.(check bool)
            (Printf.sprintf "grant is a dedup ack (info: %s)" r.Live.info)
            true
            (String.length r.Live.info >= 9
            && String.sub r.Live.info 0 9 = "duplicate");
          Live.restart cluster 0;
          check_status "recover 0" Wire.Granted (Live.recover_site c 0);
          let g = Live.get c ~at:2 ~key:"a" in
          Alcotest.(check (option string)) "applied once, value correct"
            (Some "2") g.Live.value;
          let audit = Live.check cluster in
          Alcotest.(check int) "no double applies in the merged history" 0
            audit.Live.dup_applies;
          Alcotest.(check bool) "oracle safe" true
            (Oracle.is_safe audit.Live.oracle)))

(* --- slow-loris guard ------------------------------------------------ *)

let test_slow_loris_recv () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (* A genuine frame, dribbled one byte every 30 ms and never finished:
     a client that never completes its request must cost the server only
     its deadline, never a blocked thread. *)
  let frame =
    Wire.encode
      {
        Wire.src = Wire.first_client_id;
        dst = 0;
        payload = Wire.Client_put { req = 1; key = "key"; value = "value" };
      }
  in
  let stop = ref false in
  let dripper =
    Thread.create
      (fun () ->
        let byte = Bytes.create 1 in
        let i = ref 0 in
        while (not !stop) && !i < String.length frame - 1 do
          Bytes.set byte 0 frame.[!i];
          (try ignore (Unix.write a byte 0 1 : int)
           with Unix.Unix_error _ -> stop := true);
          incr i;
          Thread.delay 0.03
        done)
      ()
  in
  let conn = Wire.conn b in
  let t0 = Dynvote_obs.Clock.now () in
  let result = Wire.recv ~deadline:(t0 +. 0.25) conn in
  let elapsed = Dynvote_obs.Clock.now () -. t0 in
  stop := true;
  Unix.close a;
  Unix.close b;
  Thread.join dripper;
  (match result with
  | Error `Timeout -> ()
  | Error `Closed -> Alcotest.fail "reported closed, not timeout"
  | Error (`Corrupt _) -> Alcotest.fail "reported corrupt, not timeout"
  | Ok _ -> Alcotest.fail "a dribbled frame decoded");
  Alcotest.(check bool)
    (Printf.sprintf "returned by the deadline (%.2fs)" elapsed)
    true (elapsed < 2.0)

(* --- the crash matrix ------------------------------------------------ *)

let find_point name =
  match
    List.find_opt (fun p -> Crash_matrix.point_name p = name) Crash_matrix.points
  with
  | Some p -> p
  | None -> Alcotest.failf "no persist point %s" name

let check_cell (cell : Crash_matrix.cell) =
  let detail =
    match cell.Crash_matrix.c_outcome with
    | Crash_matrix.Recovered -> "recovered"
    | Crash_matrix.Fenced d -> "fenced: " ^ d
    | Crash_matrix.Unavailable d -> "UNAVAILABLE: " ^ d
    | Crash_matrix.Corrupt d -> "CORRUPT: " ^ d
  in
  Alcotest.(check bool)
    (Printf.sprintf "%s x %s healthy (%s)"
       (Crash_matrix.point_name cell.Crash_matrix.c_point)
       (Storage.fault_name cell.Crash_matrix.c_fault)
       detail)
    true
    (Crash_matrix.ok cell.Crash_matrix.c_outcome)

let test_matrix_cells () =
  with_scratch (fun dir ->
      check_cell
        (Crash_matrix.run_cell ~dir ~seed:2 (find_point "shard.fsync")
           Storage.Fsync_lie);
      check_cell
        (Crash_matrix.run_cell ~dir ~seed:3 (find_point "oplog.write")
           Storage.Crash))

(* Compaction mid-flight: every atomic-replace operation of the keyed
   store's shard rewrite, struck under every fault class a bare store
   can grade.  Cheap enough to sweep un-gated — no cluster, no sockets,
   one shard log per cell. *)
let test_compaction_cells () =
  with_scratch (fun dir ->
      List.iteri
        (fun i point ->
          List.iter
            (fun fault ->
              check_cell
                (Crash_matrix.run_compaction_cell ~dir ~seed:(11 + i) point
                   fault))
            Crash_matrix.compaction_faults)
        Crash_matrix.compaction_points)

(* The exact crash window the always-fsync compaction rule closes: a
   non-durable store compacts (write-then-rename), then an unrelated
   durable replace in the same directory — the rids sidecar — fsyncs
   the directory and promotes the rename.  If the compacted bytes were
   never fsynced, the power cut leaves the shard log durably EMPTY:
   fsynced history silently gone, with no fault injected anywhere. *)
let test_compaction_promoted_rename () =
  with_scratch (fun dir ->
      let ff = Faultfs.create ~seed:7 () in
      let store, _ =
        Shard_store.open_store ~vfs:(Faultfs.vfs ff) ~durable:false ~dir ~site:0
          ~shards:1 ()
      in
      let state v =
        {
          Shard_store.op_no = v;
          version = v;
          partition = Site_set.of_list [ 0 ];
          data_version = v;
          value = Some (Printf.sprintf "v%d" v);
        }
      in
      for v = 1 to 1024 do
        Shard_store.commit store ~key:"k" ~rid:v (state v)
      done;
      Alcotest.(check int) "the 1024th commit compacted" 1
        (Shard_store.compactions store);
      Shard_store.save_rids ~fsync:true store [];
      Shard_store.close store;
      Faultfs.simulate_crash ff;
      let rescan, info = Shard_store.open_store ~dir ~site:0 ~shards:1 () in
      Alcotest.(check int) "no mid-log corruption" 0 info.Shard_store.corrupt;
      (match Shard_store.lookup rescan "k" with
      | Some st ->
          Alcotest.(check (option string))
            "compacted history survived the power cut" (Some "v1024")
            st.Shard_store.value
      | None -> Alcotest.fail "shard log durably empty: fsynced history lost");
      Shard_store.close rescan)

(* The exhaustive sweep: every persist point x every fault class.  Gated
   like the live soak — minutes of wall clock, run by CI's soak job via
   DYNVOTE_CRASH_SOAK=1. *)
let test_matrix_soak () =
  match Sys.getenv_opt "DYNVOTE_CRASH_SOAK" with
  | None | Some "" | Some "0" -> ()
  | Some _ ->
      with_scratch (fun dir ->
          let cells = Crash_matrix.run ~seed:1 ~dir () in
          Alcotest.(check int) "full cross product"
            (List.length Crash_matrix.points * List.length Storage.all_faults)
            (List.length cells);
          List.iter check_cell cells)

let suite =
  [
    Alcotest.test_case "faultfs: fsync lie reverts" `Quick test_faultfs_fsync_lie;
    Alcotest.test_case "faultfs: lost rename undone" `Quick
      test_faultfs_rename_loss;
    Alcotest.test_case "faultfs: unsynced rename leaves empty target" `Quick
      test_faultfs_unsynced_rename_empty;
    Alcotest.test_case "faultfs: short write poisons the file" `Quick
      test_faultfs_short_write_poison;
    Alcotest.test_case "faultfs: crash truncation deterministic" `Quick
      test_faultfs_crash_truncation_deterministic;
    Alcotest.test_case "oplog: mid-log corruption counted" `Quick
      test_scan_midlog_corruption;
    Alcotest.test_case "oplog: torn tail truncate-then-append" `Quick
      test_scan_torn_tail_truncate_append;
    Alcotest.test_case "oplog: two damaged trailing frames are torn" `Quick
      test_scan_two_trailing_damaged;
    Alcotest.test_case "oplog and shard log: short frame is damage" `Quick
      test_scan_short_frame;
    Alcotest.test_case "degraded site fences and recovers" `Quick
      test_degraded_fencing;
    Alcotest.test_case "boot fences on mid-log corruption" `Quick
      test_boot_fences_on_midlog_corruption;
    Alcotest.test_case "exactly-once retry dedup" `Quick test_exactly_once_retry;
    Alcotest.test_case "slow-loris recv bounded by deadline" `Quick
      test_slow_loris_recv;
    Alcotest.test_case "crash matrix cells" `Quick test_matrix_cells;
    Alcotest.test_case "compaction mid-flight cells" `Quick
      test_compaction_cells;
    Alcotest.test_case "compaction rename promoted by sidecar fsync" `Quick
      test_compaction_promoted_rename;
    Alcotest.test_case "crash matrix soak (DYNVOTE_CRASH_SOAK)" `Slow
      test_matrix_soak;
  ]
