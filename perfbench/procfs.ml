(* What the kernel knows about this process: memory high-water, CPU
   time, read/write syscalls and context switches, plus the environment
   stamp (filesystem type of the data directory).  Linux /proc; a reading
   the platform cannot give is [None]. *)

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> Some s
  | exception Sys_error _ -> None

(* The integer after ["key:"] on some line of a /proc text file. *)
let field text key =
  String.split_on_char '\n' text
  |> List.find_map (fun line ->
         match String.index_opt line ':' with
         | Some i when String.sub line 0 i = key ->
             let rest = String.sub line (i + 1) (String.length line - i - 1) in
             String.split_on_char ' ' (String.trim rest)
             |> List.find_map (fun w -> int_of_string_opt (String.trim w))
         | _ -> None)

let status_field key = Option.bind (read_file "/proc/self/status") (fun s -> field s key)

let peak_rss_mb () =
  Option.map (fun kb -> float_of_int kb /. 1024.0) (status_field "VmHWM")

(* read(2)/write(2)-family calls, from /proc/self/io. *)
let syscalls () =
  Option.bind (read_file "/proc/self/io") (fun s ->
      match (field s "syscr", field s "syscw") with
      | Some r, Some w -> Some (r + w)
      | _ -> None)

(* Voluntary and involuntary switches summed over the live threads. *)
let ctx_switches () =
  match Sys.readdir "/proc/self/task" with
  | tasks ->
      Some
        (Array.fold_left
           (fun acc tid ->
             match read_file (Printf.sprintf "/proc/self/task/%s/status" tid) with
             | None -> acc
             | Some s ->
                 let get k = Option.value ~default:0 (field s k) in
                 acc + get "voluntary_ctxt_switches" + get "nonvoluntary_ctxt_switches")
           0 tasks)
  | exception Sys_error _ -> None

(* User and system CPU seconds of the whole process, every thread and
   domain included. *)
let cpu () =
  let t = Unix.times () in
  (t.Unix.tms_utime, t.Unix.tms_stime)

(* The filesystem type of the mount holding [path]: the longest mount
   point of /proc/self/mountinfo that prefixes its real path. *)
let fs_type path =
  let real = try Unix.realpath path with Unix.Unix_error _ -> path in
  let under mount =
    mount = "/"
    || real = mount
    || String.starts_with ~prefix:(mount ^ "/") real
  in
  match read_file "/proc/self/mountinfo" with
  | None -> "unknown"
  | Some text ->
      String.split_on_char '\n' text
      |> List.fold_left
           (fun ((best_len, _) as best) line ->
             match String.split_on_char ' ' line with
             | _ :: _ :: _ :: _ :: mount :: rest when under mount -> (
                 let rec after_dash = function
                   | "-" :: fstype :: _ -> Some fstype
                   | _ :: tl -> after_dash tl
                   | [] -> None
                 in
                 match after_dash rest with
                 | Some fstype when String.length mount > best_len ->
                     (String.length mount, fstype)
                 | _ -> best)
             | _ -> best)
           (-1, "unknown")
      |> snd

(* Result, wall seconds, and (user, system) CPU seconds of [f ()]. *)
let timed f =
  let t0 = Dynvote_obs.Clock.now () and u0, s0 = cpu () in
  let r = f () in
  let u1, s1 = cpu () in
  (r, Dynvote_obs.Clock.now () -. t0, (u1 -. u0, s1 -. s0))

(* Mean cost of one monotonic clock reading, subtracted from per-call
   timings. *)
let clock_cost () =
  let n = 200_000 in
  let t0 = Dynvote_obs.Clock.now () in
  for _ = 1 to n do
    ignore (Sys.opaque_identity (Dynvote_obs.Clock.now ()))
  done;
  (Dynvote_obs.Clock.now () -. t0) /. float_of_int n

(* Restart the memory high-water mark (Linux >= 4.0), so a later
   [peak_rss_mb] covers only what ran after this call. *)
let reset_peak () =
  try Out_channel.with_open_bin "/proc/self/clear_refs" (fun oc -> output_string oc "5")
  with Sys_error _ -> ()
