(* A fixed-size domain pool.  The pool owns [jobs - 1] worker domains
   parked on a condition variable; a fan-out call publishes one batch
   body, every worker (plus the caller) runs it, and the call returns
   when all have drained.  The body itself pulls item indices from a
   shared atomic cursor, so load balancing is dynamic while results are
   joined strictly by item index — completion order never leaks into the
   output.

   The memory-model handshake: workers write result slots, then take the
   pool mutex to decrement [active]; the caller observes [active = 0]
   under the same mutex before reading the slots, so every write
   happens-before every read (no data race, per the OCaml 5 memory
   model). *)

let max_jobs = 64

let clamp jobs = if jobs < 1 then 1 else if jobs > max_jobs then max_jobs else jobs

let recommended () = clamp (Domain.recommended_domain_count ())

let default_jobs () =
  match Sys.getenv_opt "DYNVOTE_JOBS" with
  | Some v -> (
      match int_of_string_opt (String.trim v) with
      | Some n when n >= 1 -> clamp n
      | _ -> recommended ())
  | None -> recommended ()

let in_worker_key = Domain.DLS.new_key (fun () -> false)
let in_worker () = Domain.DLS.get in_worker_key

type t = {
  jobs : int;
  mutex : Mutex.t;
  work_ready : Condition.t;
  work_done : Condition.t;
  mutable batch : (unit -> unit) option; (* never raises; see [map_array] *)
  mutable epoch : int;
  mutable active : int; (* workers still to finish the current batch *)
  mutable stop : bool;
  mutable workers : unit Domain.t array;
}

let jobs t = t.jobs

let worker_loop t =
  Domain.DLS.set in_worker_key true;
  let seen_epoch = ref 0 in
  Mutex.lock t.mutex;
  let rec loop () =
    if t.stop then Mutex.unlock t.mutex
    else
      match t.batch with
      | Some body when t.epoch <> !seen_epoch ->
          seen_epoch := t.epoch;
          Mutex.unlock t.mutex;
          body ();
          Mutex.lock t.mutex;
          t.active <- t.active - 1;
          if t.active = 0 then Condition.broadcast t.work_done;
          loop ()
      | _ ->
          Condition.wait t.work_ready t.mutex;
          loop ()
  in
  loop ()

let create ?jobs () =
  let jobs = clamp (match jobs with Some j -> j | None -> default_jobs ()) in
  (* No nested pools: a pool built inside a worker is sequential. *)
  let jobs = if in_worker () then 1 else jobs in
  let t =
    {
      jobs;
      mutex = Mutex.create ();
      work_ready = Condition.create ();
      work_done = Condition.create ();
      batch = None;
      epoch = 0;
      active = 0;
      stop = false;
      workers = [||];
    }
  in
  if jobs > 1 then
    t.workers <- Array.init (jobs - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let shutdown t =
  Mutex.lock t.mutex;
  let was_stopped = t.stop in
  t.stop <- true;
  if not was_stopped then Condition.broadcast t.work_ready;
  Mutex.unlock t.mutex;
  Array.iter Domain.join t.workers;
  t.workers <- [||]

let with_pool ?jobs f =
  let t = create ?jobs () in
  match f t with
  | v ->
      shutdown t;
      v
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      shutdown t;
      Printexc.raise_with_backtrace e bt

(* Publish one batch, participate, wait for every worker to drain it. *)
let run_batch t body =
  Mutex.lock t.mutex;
  if t.stop then begin
    Mutex.unlock t.mutex;
    invalid_arg "Pool: pool is shut down"
  end;
  t.batch <- Some body;
  t.epoch <- t.epoch + 1;
  t.active <- Array.length t.workers;
  Condition.broadcast t.work_ready;
  Mutex.unlock t.mutex;
  Domain.DLS.set in_worker_key true;
  body ();
  Domain.DLS.set in_worker_key false;
  Mutex.lock t.mutex;
  while t.active > 0 do
    Condition.wait t.work_done t.mutex
  done;
  t.batch <- None;
  Mutex.unlock t.mutex

(* Per-worker claim counters of a cursor-driven fan-out; see pool.mli
   for why the names still say "steal". *)
type steal_stats = { steals : int; failed_steals : int }

let map_array t f xs =
  let n = Array.length xs in
  if t.stop then invalid_arg "Pool: pool is shut down";
  if n = 0 then [||]
  else if t.jobs = 1 || n = 1 || in_worker () then begin
    let was_worker = in_worker () in
    Domain.DLS.set in_worker_key true;
    Fun.protect
      ~finally:(fun () -> Domain.DLS.set in_worker_key was_worker)
      (fun () -> Array.map f xs)
  end
  else begin
    let results = Array.make n None in
    let errors = Array.make n None in
    let cursor = Atomic.make 0 in
    let body () =
      let rec pull () =
        let i = Atomic.fetch_and_add cursor 1 in
        if i < n then begin
          (try results.(i) <- Some (f xs.(i))
           with e -> errors.(i) <- Some (e, Printexc.get_raw_backtrace ()));
          pull ()
        end
      in
      pull ()
    in
    run_batch t body;
    (* Deterministic error propagation: the lowest failing index wins. *)
    Array.iter
      (function
        | Some (e, bt) -> Printexc.raise_with_backtrace e bt
        | None -> ())
      errors;
    Array.map (function Some v -> v | None -> assert false) results
  end

let map_list t f xs = Array.to_list (map_array t f (Array.of_list xs))
