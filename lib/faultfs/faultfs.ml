(* Fault-injecting Vfs over the real filesystem.  Two responsibilities,
   both driven by the same operation stream:

   - strike armed triggers (deterministic: the nth op of a class on a
     file class), surfacing the fault the way the persistence layer
     expects it — Vfs.Fault for write-side failures, Sys_error for
     reads, Vfs.Crash_point for simulated process death;

   - shadow-track durability: which content each path is *guaranteed*
     to hold after a power cut.  Writes move bytes into the page cache
     (the real file), never into the durable shadow; only a truthful
     fsync promotes them.  simulate_crash then forces the real files
     back to their shadows.

   All state is mutex-guarded: node threads run operations while the
   harness arms triggers and reads stats. *)

module Storage = Dynvote_chaos.Fault_plan.Storage
module Splitmix64 = Dynvote_prng.Splitmix64

type tracked = {
  mutable durable : string option; (* None = durably absent *)
  mutable appended : bool; (* ever opened in append mode *)
}

(* A rename that really happened but is not yet durable: until the
   directory fsync succeeds, a crash restores [src] (the temp file, with
   its own durable content) and reverts [dst].  [src_durable] is frozen
   at rename time — what the bytes' durability was when the name
   switched. *)
type pending = { p_src : string; p_dst : string; p_src_durable : string option }

type t = {
  mutex : Mutex.t;
  rng : Splitmix64.t;
  mutable triggers : (Storage.trigger * bool ref) list;
  counts : (Storage.op * Storage.file_class, int) Hashtbl.t;
  fired : (string, int) Hashtbl.t; (* fault name -> times injected *)
  files : (string, tracked) Hashtbl.t;
  mutable pendings : pending list;
}

let create ?(seed = 1) () =
  {
    mutex = Mutex.create ();
    rng = Splitmix64.create (Int64.of_int seed);
    triggers = [];
    counts = Hashtbl.create 16;
    fired = Hashtbl.create 8;
    files = Hashtbl.create 16;
    pendings = [];
  }

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let arm t trigger = locked t (fun () -> t.triggers <- t.triggers @ [ (trigger, ref false) ])

(* Arm relative to the present: "the nth matching operation from now".
   Absolute counts since creation are unknowable to anyone arming
   mid-run (a console operator, the crash matrix arming after boot), so
   the current count is folded into the trigger's nth. *)
let arm_next t trigger =
  locked t (fun () ->
      let key = (trigger.Storage.op, trigger.Storage.file) in
      let current = Option.value ~default:0 (Hashtbl.find_opt t.counts key) in
      t.triggers <-
        t.triggers
        @ [ ({ trigger with Storage.nth = current + trigger.Storage.nth }, ref false) ])

let disarm t = locked t (fun () -> t.triggers <- [])

let injected t =
  locked t (fun () ->
      Hashtbl.fold (fun name n acc -> (name, n) :: acc) t.fired []
      |> List.sort compare)

let injected_total t =
  locked t (fun () -> Hashtbl.fold (fun _ n acc -> acc + n) t.fired 0)

(* --- path classification and baselines ------------------------------ *)

let classify path =
  let base = Filename.basename path in
  let base =
    match Filename.chop_suffix_opt ~suffix:".tmp" base with
    | Some b -> b
    | None -> base
  in
  match base with
  | "oplog.dvl" -> Storage.Oplog
  | "rids.dvr" -> Storage.Shard
  | _ ->
      let is_shard_log =
        String.length base > 6
        && String.sub base 0 6 = "shard-"
        && Filename.check_suffix base ".dvl"
      in
      if is_shard_log then Storage.Shard else Storage.Any_file

let read_whole path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_whole path content =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc content)

(* Whatever the path holds when we first touch it predates the
   simulation and counts as durable. *)
let track t path =
  match Hashtbl.find_opt t.files path with
  | Some entry -> entry
  | None ->
      let durable =
        if Sys.file_exists path then Some (read_whole path) else None
      in
      let entry = { durable; appended = false } in
      Hashtbl.add t.files path entry;
      entry

(* --- trigger evaluation --------------------------------------------- *)

let bump t key =
  let n = 1 + Option.value ~default:0 (Hashtbl.find_opt t.counts key) in
  Hashtbl.replace t.counts key n;
  n

(* Count the operation, then fire the first armed trigger whose class,
   file and occurrence number all match.  Counts are kept both per
   concrete file class and under the Any_file wildcard so a trigger can
   target either. *)
let strike t ~op ~cls =
  locked t (fun () ->
      let n_cls = bump t (op, cls) in
      let n_any = if cls = Storage.Any_file then n_cls else bump t (op, Storage.Any_file) in
      let matches (tr, fired_flag) =
        (not !fired_flag)
        && tr.Storage.op = op
        && (match tr.Storage.file with
           | Storage.Any_file -> tr.Storage.nth = n_any
           | file -> file = cls && tr.Storage.nth = n_cls)
      in
      match List.find_opt matches t.triggers with
      | None -> None
      | Some (tr, fired_flag) ->
          fired_flag := true;
          let name = Storage.fault_name tr.Storage.fault in
          Hashtbl.replace t.fired name
            (1 + Option.value ~default:0 (Hashtbl.find_opt t.fired name));
          Some tr.Storage.fault)

let fault ~op ~path reason = raise (Vfs.Fault { op; path; reason })
let crash_point ~op ~path = raise (Vfs.Crash_point { op; path })

(* Map a fault struck at a non-read operation to its surface form.
   Faults armed at an operation they do not naturally belong to (a
   matrix cell placing Eio at an fsync, say) still fail that operation —
   a trigger always means "this operation goes wrong here". *)
let surface ~op ~path = function
  | Storage.Crash -> crash_point ~op ~path
  | Storage.Enospc -> fault ~op ~path "ENOSPC (injected): no space left on device"
  | Storage.Eio | Storage.Short_write | Storage.Fsync_fail | Storage.Fsync_lie
  | Storage.Rename_loss | Storage.Read_eio ->
      fault ~op ~path "EIO (injected)"

(* --- the vfs operations --------------------------------------------- *)

let open_file t path ~append =
  let cls = classify path in
  let entry = locked t (fun () -> track t path) in
  (match strike t ~op:Storage.Create ~cls with
  | None -> ()
  | Some Storage.Crash -> crash_point ~op:"create" ~path
  | Some f -> surface ~op:"create" ~path f);
  if append then entry.appended <- true;
  let flags =
    Unix.O_WRONLY :: Unix.O_CREAT :: [ (if append then Unix.O_APPEND else Unix.O_TRUNC) ]
  in
  let fd = Unix.openfile path flags 0o644 in
  (* A short write models the device dying mid-transfer: the partial
     bytes land, every later write on this descriptor fails. *)
  let poisoned = ref false in
  {
    Vfs.write =
      (fun buf off len ->
        if !poisoned then fault ~op:"write" ~path "EIO (injected): device failed";
        match strike t ~op:Storage.Write ~cls with
        | None -> Unix.write fd buf off len
        | Some Storage.Short_write ->
            let n = len / 2 in
            let written = ref 0 in
            while !written < n do
              written := !written + Unix.write fd buf (off + !written) (n - !written)
            done;
            poisoned := true;
            n
        | Some Storage.Crash -> crash_point ~op:"write" ~path
        | Some f ->
            poisoned := true;
            surface ~op:"write" ~path f);
    Vfs.fsync =
      (fun () ->
        match strike t ~op:Storage.Fsync ~cls with
        | None ->
            Unix.fsync fd;
            locked t (fun () -> entry.durable <- Some (read_whole path))
        | Some Storage.Fsync_lie -> () (* "success", nothing promoted *)
        | Some Storage.Crash -> crash_point ~op:"fsync" ~path
        | Some f -> surface ~op:"fsync" ~path f);
    Vfs.close = (fun () -> try Unix.close fd with Unix.Unix_error _ -> ());
  }

let rename t ~src ~dst =
  let cls = classify dst in
  let src_entry, _dst_entry = locked t (fun () -> (track t src, track t dst)) in
  (match strike t ~op:Storage.Rename ~cls with
  | None -> ()
  | Some Storage.Crash -> crash_point ~op:"rename" ~path:dst
  | Some f -> surface ~op:"rename" ~path:dst f);
  Sys.rename src dst;
  locked t (fun () ->
      t.pendings <-
        { p_src = src; p_dst = dst; p_src_durable = src_entry.durable } :: t.pendings)

let fsync_dir t dir =
  (* The directory operation carries no file name; classify it by the
     rename it would make durable. *)
  let cls =
    locked t (fun () ->
        match
          List.find_opt (fun p -> Filename.dirname p.p_dst = dir) t.pendings
        with
        | Some p -> classify p.p_dst
        | None -> Storage.Any_file)
  in
  match strike t ~op:Storage.Fsync_dir ~cls with
  | Some (Storage.Rename_loss | Storage.Fsync_lie) ->
      () (* "success": the renames stay volatile, a crash undoes them *)
  | Some Storage.Crash -> crash_point ~op:"fsync-dir" ~path:dir
  | Some f -> surface ~op:"fsync-dir" ~path:dir f
  | None ->
      Vfs.real.Vfs.fsync_dir dir;
      locked t (fun () ->
          let here, elsewhere =
            List.partition (fun p -> Filename.dirname p.p_dst = dir) t.pendings
          in
          List.iter
            (fun p ->
              (* The name switch is durable.  If the source bytes never
                 were, the crash outcome is a durably *empty* target. *)
              (track t p.p_dst).durable <-
                Some (Option.value ~default:"" p.p_src_durable);
              (track t p.p_src).durable <- None)
            (* Oldest first: a later rename over the same target wins. *)
            (List.rev here);
          t.pendings <- elsewhere)

let read t path =
  let cls = classify path in
  ignore (locked t (fun () -> track t path) : tracked);
  match strike t ~op:Storage.Read ~cls with
  | None -> Vfs.real.Vfs.read path
  | Some Storage.Crash -> crash_point ~op:"read" ~path
  | Some _ -> raise (Sys_error (path ^ ": Input/output error (injected)"))

(* Truncation is recovery hygiene (dropping a torn log tail), not a
   fault target; the durable shadow is clipped with the file. *)
let truncate t path len =
  ignore (locked t (fun () -> track t path) : tracked);
  Unix.truncate path len;
  locked t (fun () ->
      let entry = track t path in
      match entry.durable with
      | Some d when String.length d > len -> entry.durable <- Some (String.sub d 0 len)
      | Some _ | None -> ())

let vfs t =
  {
    Vfs.create = (fun path -> open_file t path ~append:false);
    Vfs.append = (fun path -> open_file t path ~append:true);
    Vfs.rename = (fun ~src ~dst -> rename t ~src ~dst);
    Vfs.fsync_dir = (fun dir -> fsync_dir t dir);
    Vfs.read = (fun path -> read t path);
    Vfs.truncate = (fun path len -> truncate t path len);
  }

(* --- crash simulation ----------------------------------------------- *)

let simulate_crash t =
  locked t (fun () ->
      (* Undone renames first: the target reverts below (its durable
         shadow was never promoted); here we only make sure the source
         entry still exists so the pass restores the temp file too. *)
      List.iter (fun p -> ignore (track t p.p_src : tracked)) t.pendings;
      t.pendings <- [];
      Hashtbl.iter
        (fun path entry ->
          let exists = Sys.file_exists path in
          let real = if exists then read_whole path else "" in
          if entry.appended then begin
            (* Keep the durable prefix plus a seeded-random cut of the
               unsynced suffix — partial page writeback, torn mid-record
               more often than not.  (The file can also be *shorter* than
               its shadow after a recovery-time truncate; never slice
               past the real end.) *)
            let d = Option.value ~default:"" entry.durable in
            let suffix_len = max 0 (String.length real - String.length d) in
            let keep = Splitmix64.next_int t.rng (suffix_len + 1) in
            let after =
              String.sub real 0 (min (String.length real) (String.length d + keep))
            in
            write_whole path after;
            entry.durable <- Some after
          end
          else
            match entry.durable with
            | Some content -> if (not exists) || real <> content then write_whole path content
            | None -> if exists then Sys.remove path)
        t.files)
