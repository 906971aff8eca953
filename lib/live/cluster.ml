(* Wiring a real cluster out of the pieces: switchboard + node threads +
   client connections, plus the two things only an orchestrator can own —
   the global sequence stamp that orders log records across nodes, and
   the end-of-run audit that merges those logs and replays them through
   the safety oracle. *)

(* The audit evaluates the shared executable invariant spec directly:
   Dynvote_chaos.Oracle is the same module re-exported, but going to the
   source keeps the "one spec, three checkers" dependency explicit. *)
module Oracle = Dynvote_invariant.Spec
module Trace = Dynvote_obs.Trace
module Hub = Dynvote_obs.Hub
module Shard_store = Dynvote_shard.Shard_store

type t = {
  universe : Site_set.t;
  dir : string;
  flavor : Decision.flavor;
  segment_of : Site_set.site -> int;
  config : Node.config;
  client_timeout : float;
  hub : Hub.t;
  sw : Switchboard.t;
  vfs_of : Site_set.site -> Vfs.t;
  nodes : (Site_set.site, Node.t) Hashtbl.t;
  threads : (Site_set.site, Thread.t) Hashtbl.t;
  next_seq : unit -> int;
}

let universe t = t.universe
let dir t = t.dir
let obs t = t.hub
let port t = Switchboard.port t.sw
let backend t = Switchboard.backend t.sw
let up_sites t = Switchboard.up_sites t.sw

let degraded t site =
  match Hashtbl.find_opt t.nodes site with
  | None -> None
  | Some node -> Node.degraded node

let spawn t site ~was_restarted =
  let node =
    Node.boot ~site ~universe:t.universe ~flavor:t.flavor
      ~segment_of:t.segment_of ~config:t.config ~obs:t.hub ~dir:t.dir
      ~vfs:(t.vfs_of site) ~next_seq:t.next_seq ~port:(Switchboard.port t.sw)
      ~was_restarted ()
  in
  Hashtbl.replace t.nodes site node;
  Hashtbl.replace t.threads site (Thread.create Node.serve node)

let create ?(flavor = Decision.ldv_flavor) ?(segment_of = fun s -> s)
    ?(config = Node.default_config) ?(client_timeout = 10.0)
    ?(obs = Hub.create ()) ?(vfs_of = fun _ -> Vfs.real) ~universe ~dir () =
  (* Resuming over old logs: the global stamp must keep growing, or the
     merged replay would interleave the incarnations.  Client endpoint
     ids must not be recycled either — the persisted dedup tables are
     keyed by them, so a fresh client under a reused id would see its
     first writes acknowledged as duplicates of the previous
     incarnation's. *)
  let seq0, client0 =
    Site_set.fold
      (fun site (seq, client) ->
        let records, _ = Persist.read_log ~path:(Persist.oplog_path ~dir site) in
        List.fold_left
          (fun (seq, client) r ->
            let rid =
              match r with
              | Persist.Log_commit { rid; _ } | Persist.Log_outcome { rid; _ } -> rid
              | Persist.Log_intent _ -> 0
            in
            (max seq (Persist.seq_of r), max client (rid lsr 32)))
          (seq, client) records)
      universe
      (0, Wire.first_client_id - 1)
  in
  let sw =
    Switchboard.create ~obs ~first_client:(client0 + 1) ~universe ~segment_of ()
  in
  let seq = ref seq0 in
  let seq_mutex = Mutex.create () in
  let next_seq () =
    Mutex.lock seq_mutex;
    incr seq;
    let v = !seq in
    Mutex.unlock seq_mutex;
    v
  in
  let t =
    {
      universe;
      dir;
      flavor;
      segment_of;
      config;
      client_timeout;
      hub = obs;
      sw;
      vfs_of;
      nodes = Hashtbl.create 8;
      threads = Hashtbl.create 8;
      next_seq;
    }
  in
  (* A site that has booted before owns a directory: it restarts from
     its logs (and is not fresh until its next commit).  A site with none
     boots into the paper's initial state — every object current in one
     partition, materialized lazily. *)
  Site_set.iter
    (fun site ->
      let booted_before = Sys.file_exists (Persist.site_dir ~dir site) in
      spawn t site ~was_restarted:booted_before)
    universe;
  t

(* --- fault injection ------------------------------------------------ *)

let partition t groups = Switchboard.partition t.sw groups
let heal t = Switchboard.heal t.sw

let join_thread t site =
  match Hashtbl.find_opt t.threads site with
  | Some thread ->
      Thread.join thread;
      Hashtbl.remove t.threads site
  | None -> ()

let kill t site =
  Switchboard.crash t.sw site;
  join_thread t site;
  Hashtbl.remove t.nodes site

let restart t site =
  (* The struck thread (if any) exits on its closed socket; reap it so
     two incarnations never share an oplog channel. *)
  Switchboard.crash t.sw site;
  join_thread t site;
  Hub.event t.hub (Trace.Restart { site });
  spawn t site ~was_restarted:true

let kill_async t site = Switchboard.crash t.sw site

let set_commit_hook t site hook =
  match Hashtbl.find_opt t.nodes site with
  | None -> invalid_arg "Cluster.set_commit_hook: site not running"
  | Some node -> Node.set_commit_hook node hook

let strike_after t site n =
  set_commit_hook t site
    (Some (fun ~sent ~total:_ -> if sent = n then raise Node.Killed))

(* --- clients -------------------------------------------------------- *)

type client = { t : t; conn : Wire.conn; id : int; mutable req : int }

type reply = {
  status : Wire.status;
  value : string option;
  info : string;
  retries : int;
}

let client t =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port t));
     Unix.setsockopt sock Unix.TCP_NODELAY true
   with e ->
     (try Unix.close sock with Unix.Unix_error _ -> ());
     raise e);
  let conn = Wire.conn sock in
  Wire.send conn { Wire.src = 0; dst = Wire.broker_id; payload = Wire.Hello_client };
  match
    Wire.recv ~clock:t.config.Node.clock
      ~deadline:(t.config.Node.clock () +. 5.0)
      conn
  with
  | Ok { Wire.payload = Wire.Welcome { id }; _ } -> { t; conn; id; req = 0 }
  | _ ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      failwith "live client: switchboard handshake failed"

(* One exchange with one site, under an already-chosen request number.
   The number does NOT advance here: a retry of the same request reuses
   it, which is what lets the sites deduplicate. *)
let call_once client ~at ~req payload_of_req =
  if not (Site_set.mem at client.t.universe) then
    { status = Wire.Denied; value = None; info = "no such site"; retries = 0 }
  else if not (Switchboard.is_up client.t.sw at) then
    { status = Wire.Denied; value = None; info = "site down"; retries = 0 }
  else begin
    match
      Wire.send client.conn
        { Wire.src = client.id; dst = at; payload = payload_of_req req }
    with
    | exception Unix.Unix_error _ ->
        { status = Wire.Aborted; value = None; info = "connection lost"; retries = 0 }
    | () ->
        let clock = client.t.config.Node.clock in
        let deadline = clock () +. client.t.client_timeout in
        let rec wait () =
          match Wire.recv ~clock ~deadline client.conn with
          | Error `Timeout ->
              (* The site may be mid-commit for all we know. *)
              { status = Wire.Aborted; value = None; info = "timeout: no reply"; retries = 0 }
          | Error (`Closed | `Corrupt _) ->
              { status = Wire.Aborted; value = None; info = "connection lost"; retries = 0 }
          | Ok { Wire.payload = Wire.Client_reply { req = r; status; value; info }; _ }
            when r = req ->
              { status; value; info; retries = 0 }
          | Ok _ -> wait () (* a stale reply from a timed-out operation *)
        in
        wait ()
  end

(* An aborted or degraded-site exchange is ambiguous — the operation may
   or may not have committed — so the retry reuses the same request
   number at the next up site, and the dedup table makes the ambiguity
   harmless: re-coordinating an already-committed write acknowledges it
   without applying it again. *)
let call ?(retries = 0) client ~at payload_of_req =
  client.req <- client.req + 1;
  let req = client.req in
  let next_site exclude =
    let candidates = Site_set.remove exclude (up_sites client.t) in
    if Site_set.is_empty candidates then None
    else Some (Site_set.min_elt candidates)
  in
  let rec attempt ~at n =
    let reply = call_once client ~at ~req payload_of_req in
    match reply.status with
    | Wire.Granted | Wire.Denied -> { reply with retries = n }
    | Wire.Aborted | Wire.Degraded ->
        if n >= retries then { reply with retries = n }
        else (
          match next_site at with
          | None -> { reply with retries = n }
          | Some at -> attempt ~at (n + 1))
  in
  attempt ~at 0

let put ?retries client ~at ~key ~value =
  call ?retries client ~at (fun req -> Wire.Client_put { req; key; value })

let get ?retries client ~at ~key =
  call ?retries client ~at (fun req -> Wire.Client_get { req; key })

let recover_site client site =
  call client ~at:site (fun req -> Wire.Client_recover { req })

(* --- audit ---------------------------------------------------------- *)

type audit = {
  oracle : Oracle.t;
  torn : Site_set.t;
  corrupt : int;
  dup_applies : int;
  records : int;
  keys : int;
  kviolations : (string * Oracle.violation) list;
}

(* Exactly-once accounting over the merged logs: the request-id space is
   global (client lsl 32 lor req), so one table serves.  A request id is
   double-applied when the history shows it committing under two
   distinct logical commits — distinct (object, op_no) pairs; the same
   logical commit fanning out to many sites shares its identity, so that
   is not a duplicate — or when two granted write outcomes both claim to
   have installed content for it. *)
let count_dup_applies tagged =
  let commit_ops = Hashtbl.create 16 in
  let applied_outcomes = Hashtbl.create 16 in
  List.iter
    (fun (_site, record) ->
      match record with
      | Persist.Log_commit { key; op_no; rid; _ } when rid <> 0 ->
          let ops = Option.value ~default:[] (Hashtbl.find_opt commit_ops rid) in
          if not (List.mem (key, op_no) ops) then
            Hashtbl.replace commit_ops rid ((key, op_no) :: ops)
      | Persist.Log_outcome { kind = `Write; granted = true; content = Some _; rid; _ }
        when rid <> 0 ->
          Hashtbl.replace applied_outcomes rid
            (1 + Option.value ~default:0 (Hashtbl.find_opt applied_outcomes rid))
      | _ -> ())
    tagged;
  let dups = Hashtbl.create 8 in
  Hashtbl.iter
    (fun rid ops -> if List.length ops >= 2 then Hashtbl.replace dups rid ())
    commit_ops;
  Hashtbl.iter
    (fun rid n -> if n >= 2 then Hashtbl.replace dups rid ())
    applied_outcomes;
  Hashtbl.length dups

(* Every object is its own register, so every object gets its own
   oracle: its commits, intents and outcomes in global stamp order, its
   final per-site (data_version, content) states from the shard logs.
   The replicated file ({!Node.file_object}) reports as [oracle]; every
   other object is a key of the sharded space. *)
let check_dir ~universe ~dir =
  let torn = ref Site_set.empty in
  let corrupt = ref 0 in
  let tagged = ref [] in
  Site_set.iter
    (fun site ->
      let scan = Persist.scan_log ~path:(Persist.oplog_path ~dir site) () in
      if scan.Persist.torn then torn := Site_set.add site !torn;
      corrupt := !corrupt + scan.Persist.corrupt;
      List.iter (fun r -> tagged := (site, r) :: !tagged) scan.Persist.records)
    universe;
  let ordered =
    List.sort
      (fun (_, a) (_, b) -> compare (Persist.seq_of a) (Persist.seq_of b))
      !tagged
  in
  let events = Hashtbl.create 64 in
  let finals = Hashtbl.create 64 in
  let objects = ref [] in
  let add table key x =
    match Hashtbl.find_opt table key with
    | Some xs -> Hashtbl.replace table key (x :: xs)
    | None ->
        if not (Hashtbl.mem events key || Hashtbl.mem finals key) then
          objects := key :: !objects;
        Hashtbl.replace table key [ x ]
  in
  List.iter
    (fun (site, record) ->
      match record with
      | Persist.Log_commit { key; op_no; version; partition; _ } ->
          add events key
            (Oracle.Replay_commit
               { site; replica = Replica.make ~op_no ~version ~partition })
      | Persist.Log_intent { key; content; _ } ->
          add events key (Oracle.Replay_intent { content })
      | Persist.Log_outcome { key; kind = `Write; granted; content = Some content; _ } ->
          add events key (Oracle.Replay_write { granted; content })
      | Persist.Log_outcome { key; kind = `Read; granted; content; _ } ->
          add events key (Oracle.Replay_read { at = site; granted; content })
      | Persist.Log_outcome { kind = `Write; content = None; _ }
      | Persist.Log_outcome { kind = `Recover; _ } ->
          ())
    ordered;
  Site_set.iter
    (fun site ->
      List.iter
        (fun (key, st) ->
          add finals key
            ( site,
              st.Shard_store.data_version,
              Node.oracle_content st.Shard_store.value ))
        (Shard_store.read_states ~dir ~site))
    universe;
  let replay key =
    let events = List.rev (Option.value ~default:[] (Hashtbl.find_opt events key)) in
    let final = Option.value ~default:[] (Hashtbl.find_opt finals key) in
    Oracle.replay ~initial_content:"" ~final events
  in
  let keys = List.filter (fun key -> key <> Node.file_object) (List.rev !objects) in
  {
    oracle = replay Node.file_object;
    torn = !torn;
    corrupt = !corrupt;
    dup_applies = count_dup_applies ordered;
    records = List.length ordered;
    keys = List.length keys;
    kviolations =
      List.concat_map
        (fun key -> List.map (fun v -> (key, v)) (Oracle.violations (replay key)))
        keys;
  }

(* COMMIT waves are fire-and-forget, so a client can hold a granted
   reply while the last participants are still applying.  Pinging each
   up site with an empty state request — answered by every site, fenced
   and amnesiac ones with an abstention — and waiting for its answer
   drains the race: per-connection FIFO means every commit the broker
   routed before our ping is applied — and persisted, synchronously —
   before the node answers us. *)
let quiesce t =
  match client t with
  | exception _ -> ()
  | c ->
      Site_set.iter
        (fun site ->
          match
            Wire.send c.conn
              {
                Wire.src = c.id;
                dst = site;
                payload = Wire.KState_request { round = 0; keys = [] };
              }
          with
          | exception Unix.Unix_error _ -> ()
          | () ->
              let clock = t.config.Node.clock in
              let deadline = clock () +. 1.0 in
              let rec wait () =
                match Wire.recv ~clock ~deadline c.conn with
                | Ok { Wire.payload = Wire.KState_reply _ | Wire.Abstain _; src; _ }
                  when src = site ->
                    ()
                | Ok _ -> wait ()
                | Error _ -> ()
              in
              wait ())
        (up_sites t);
      (try Unix.close (Wire.fd c.conn) with Unix.Unix_error _ -> ())

let check t =
  quiesce t;
  check_dir ~universe:t.universe ~dir:t.dir

let shutdown t =
  Switchboard.shutdown t.sw;
  Site_set.iter (fun site -> join_thread t site) t.universe;
  Hashtbl.reset t.nodes
