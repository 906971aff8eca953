(* Wire protocol of the live replication service.

   A frame is a {!Codec} sealed record (magic "DVW1") whose body is
   [src:u16 | dst:u16 | tag:u8 | fields]; Codec owns the framing,
   checksum and field encodings.  The consistency ensembles inside
   KState_reply are the Codec ensemble record byte for byte, so the
   protocol state that crosses the wire is the same record that sits on
   disk.  Tags 3-5 and 7-10 belonged to a retired frame family and are
   never reused. *)

open Codec

let magic = "DVW1"
let max_frame = max_record
let broker_id = 0xFFFF
let first_client_id = 64
let is_site id = id >= 0 && id < Site_set.max_sites

type status = Granted | Denied | Aborted | Degraded

type payload =
  | Hello_site of { site : Site_set.site }
  | Hello_client
  | Welcome of { id : int }
  | Lock_reply of { op : int; granted : bool }
  | Client_put of { req : int; key : string; value : string }
  | Client_get of { req : int; key : string }
  | Client_recover of { req : int }
  | Client_reply of { req : int; status : status; value : string option; info : string }
  | Abstain of { round : int }
      (* a fenced or amnesiac site answering a state or lock gather:
         alive but taking no part, so the coordinator can stop waiting
         without counting it as a vote (for locks, [round] is the op) *)
  (* Object frames.  One group-quorum round names every object it
     covers, so a single wire exchange locks, gathers and commits an
     entire scheduler burst of operations. *)
  | KLock_request of { op : int; keys : string list }
  | KUnlock of { op : int; keys : string list }
  | KState_request of { round : int; keys : string list }
  | KState_reply of {
      round : int;
      fresh : bool;
      states : (string * Replica.t) list;
    }
  | KCommit of {
      key : string;
      op_no : int;
      version : int;
      partition : Site_set.t;
      value : string option;  (* [None]: consistency-only (read) commit *)
      rid : int;
    }
  | KData_request of { round : int; key : string }
  | KData_reply of {
      round : int;
      key : string;
      version : int;
      value : string option;
      rids : (int * int) list;
    }

type envelope = { src : int; dst : int; payload : payload }

let kind_name = function
  | Hello_site _ -> "hello-site"
  | Hello_client -> "hello-client"
  | Welcome _ -> "welcome"
  | Lock_reply _ -> "lock-reply"
  | Client_put _ -> "client-put"
  | Client_get _ -> "client-get"
  | Client_recover _ -> "client-recover"
  | Client_reply _ -> "client-reply"
  | Abstain _ -> "abstain"
  | KLock_request _ -> "klock-request"
  | KUnlock _ -> "kunlock"
  | KState_request _ -> "kstate-request"
  | KState_reply _ -> "kstate-reply"
  | KCommit _ -> "kcommit"
  | KData_request _ -> "kdata-request"
  | KData_reply _ -> "kdata-reply"

let pp ppf e = Fmt.pf ppf "%d->%d %s" e.src e.dst (kind_name e.payload)

(* --- encoding ----------------------------------------------------- *)

let add_status b = function
  | Granted -> add_u8 b 0
  | Denied -> add_u8 b 1
  | Aborted -> add_u8 b 2
  | Degraded -> add_u8 b 3

let tag_of = function
  | Hello_site _ -> 0
  | Hello_client -> 1
  | Welcome _ -> 2
  | Lock_reply _ -> 6
  | Client_put _ -> 11
  | Client_get _ -> 12
  | Client_recover _ -> 13
  | Client_reply _ -> 14
  | Abstain _ -> 15
  | KLock_request _ -> 16
  | KUnlock _ -> 17
  | KState_request _ -> 18
  | KState_reply _ -> 19
  | KCommit _ -> 20
  | KData_request _ -> 21
  | KData_reply _ -> 22

let add_keys b keys =
  add_u16 b (List.length keys);
  List.iter (add_key b) keys

let encode_payload b = function
  | Hello_site { site } -> add_u16 b site
  | Hello_client -> ()
  | Welcome { id } -> add_u16 b id
  | Lock_reply { op; granted } ->
      add_u32 b op;
      add_bool b granted
  | Client_put { req; key; value } ->
      add_u32 b req;
      add_key b key;
      add_blob b value
  | Client_get { req; key } ->
      add_u32 b req;
      add_key b key
  | Client_recover { req } -> add_u32 b req
  | Client_reply { req; status; value; info } ->
      add_u32 b req;
      add_status b status;
      add_option b add_blob value;
      add_key b info
  | Abstain { round } -> add_u32 b round
  | KLock_request { op; keys } | KUnlock { op; keys } ->
      add_u32 b op;
      add_keys b keys
  | KState_request { round; keys } ->
      add_u32 b round;
      add_keys b keys
  | KState_reply { round; fresh; states } ->
      add_u32 b round;
      add_bool b fresh;
      add_u16 b (List.length states);
      List.iter
        (fun (k, replica) ->
          add_key b k;
          Buffer.add_string b (encode_replica replica))
        states
  | KCommit { key; op_no; version; partition; value; rid } ->
      add_key b key;
      add_u64 b op_no;
      add_u64 b version;
      add_u64 b (Site_set.to_int partition);
      add_option b add_blob value;
      add_u64 b rid
  | KData_request { round; key } ->
      add_u32 b round;
      add_key b key
  | KData_reply { round; key; version; value; rids } ->
      add_u32 b round;
      add_key b key;
      add_u64 b version;
      add_option b add_blob value;
      add_list b
        (fun b (client, req) ->
          add_u32 b client;
          add_u64 b req)
        rids

let encode e =
  seal ~magic (fun b ->
      add_u16 b e.src;
      add_u16 b e.dst;
      add_u8 b (tag_of e.payload);
      encode_payload b e.payload)

(* --- decoding ----------------------------------------------------- *)

let keys_field c = List.init (u16 c) (fun _ -> key c)

let status_field c =
  match u8 c with
  | 0 -> Granted
  | 1 -> Denied
  | 2 -> Aborted
  | 3 -> Degraded
  | _ -> raise (Bad "bad status")

let replica_field c =
  match decode_result (str c encoded_size) with
  | Ok replica -> replica
  | Error reason -> raise (Bad ("bad replica: " ^ reason))

let decode_payload c tag =
  match tag with
  | 0 -> Hello_site { site = u16 c }
  | 1 -> Hello_client
  | 2 -> Welcome { id = u16 c }
  | 6 ->
      let op = u32 c in
      Lock_reply { op; granted = bool c }
  | 11 ->
      let req = u32 c in
      let k = key c in
      Client_put { req; key = k; value = blob c }
  | 12 ->
      let req = u32 c in
      Client_get { req; key = key c }
  | 13 -> Client_recover { req = u32 c }
  | 14 ->
      let req = u32 c in
      let status = status_field c in
      let v = option c blob in
      Client_reply { req; status; value = v; info = key c }
  | 15 -> Abstain { round = u32 c }
  | 16 ->
      let op = u32 c in
      KLock_request { op; keys = keys_field c }
  | 17 ->
      let op = u32 c in
      KUnlock { op; keys = keys_field c }
  | 18 ->
      let round = u32 c in
      KState_request { round; keys = keys_field c }
  | 19 ->
      let round = u32 c in
      let fresh = bool c in
      let states =
        List.init (u16 c) (fun _ ->
            let k = key c in
            (k, replica_field c))
      in
      KState_reply { round; fresh; states }
  | 20 ->
      let k = key c in
      let op_no = u64 c in
      let version = u64 c in
      let partition = site_set c in
      let value = option c blob in
      KCommit { key = k; op_no; version; partition; value; rid = u64 c }
  | 21 ->
      let round = u32 c in
      KData_request { round; key = key c }
  | 22 ->
      let round = u32 c in
      let k = key c in
      let version = u64 c in
      let value = option c blob in
      let rids = list c (fun c -> let client = u32 c in (client, u64 c)) in
      KData_reply { round; key = k; version; value; rids }
  | _ -> raise (Bad "unknown tag")

(* The sealed frame at [off, off + len) of [data], length prefix
   excluded. *)
let decode_body =
  unseal ~magic (fun c ->
      let src = u16 c in
      let dst = u16 c in
      { src; dst; payload = decode_payload c (u8 c) })

let decode frame =
  if String.length frame < 4 then Error "missing length prefix"
  else
    let len = Int32.to_int (String.get_int32_le frame 0) land 0xFFFFFFFF in
    if len > max_frame then Error "frame length out of range"
    else if String.length frame - 4 <> len then Error "length prefix mismatch"
    else decode_body (Bytes.unsafe_of_string frame) ~off:4 ~len

(* --- incremental decoder ------------------------------------------ *)

(* Frame reassembly with no socket attached: bytes go in at whatever
   boundaries the transport produced them, complete frames come out.
   This is the piece the event loop (and the deterministic fake-socket
   tests) drive directly. *)
module Decoder = struct
  type t = { mutable buf : Bytes.t; mutable len : int }

  let create () = { buf = Bytes.create 4096; len = 0 }
  let buffered d = d.len

  let ensure_capacity d extra =
    if d.len + extra > Bytes.length d.buf then begin
      let grown = Bytes.create (max (2 * Bytes.length d.buf) (d.len + extra)) in
      Bytes.blit d.buf 0 grown 0 d.len;
      d.buf <- grown
    end

  let feed d bytes off len =
    ensure_capacity d len;
    Bytes.blit bytes off d.buf d.len len;
    d.len <- d.len + len

  let feed_string d s = feed d (Bytes.unsafe_of_string s) 0 (String.length s)

  let next d =
    if d.len < 4 then None
    else
      let body_len = Int32.to_int (Bytes.get_int32_le d.buf 0) land 0xFFFFFFFF in
      if body_len > max_frame then Some (Error "frame length out of range")
      else if d.len < 4 + body_len then None
      else begin
        let decoded = decode_body d.buf ~off:4 ~len:body_len in
        let rest = d.len - 4 - body_len in
        Bytes.blit d.buf (4 + body_len) d.buf 0 rest;
        d.len <- rest;
        Some decoded
      end
end

(* --- buffered connections ----------------------------------------- *)

type conn = {
  sock : Unix.file_descr;
  dec : Decoder.t;
  scratch : Bytes.t;
}

let conn sock = { sock; dec = Decoder.create (); scratch = Bytes.create 4096 }
let fd c = c.sock

(* Blocking-style send that also survives non-blocking descriptors:
   EAGAIN waits for writability through poll (never select — client
   descriptor numbers can exceed FD_SETSIZE), EINTR retries. *)
let send c e =
  let frame = Bytes.unsafe_of_string (encode e) in
  let total = Bytes.length frame in
  let written = ref 0 in
  while !written < total do
    match Unix.write c.sock frame !written (total - !written) with
    | n -> written := !written + n
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        ignore (Evloop.wait_fd c.sock ~read:false ~write:true ~timeout:(-1.0))
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

let read_once c =
  match Unix.read c.sock c.scratch 0 (Bytes.length c.scratch) with
  | 0 -> `Closed
  | n ->
      Decoder.feed c.dec c.scratch 0 n;
      `Data
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE | Unix.EBADF), _, _) ->
      `Closed

(* [deadline] is an absolute reading of [clock] — the injected monotonic
   clock by default, never the steppable wall clock. *)
let rec recv ?(clock = Dynvote_obs.Clock.now) ?deadline c =
  match Decoder.next c.dec with
  | Some (Ok e) -> Ok e
  | Some (Error reason) -> Error (`Corrupt reason)
  | None -> (
      let timeout =
        match deadline with None -> -1.0 (* block *) | Some d -> d -. clock ()
      in
      if deadline <> None && timeout <= 0.0 then Error `Timeout
      else
        match Evloop.wait_fd c.sock ~read:true ~write:false ~timeout with
        | None -> Error `Timeout
        | Some _ -> (
            match read_once c with
            | `Closed -> Error `Closed
            | `Data -> recv ~clock ?deadline c
            | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
              ->
                (* spurious wakeup on a non-blocking socket *)
                recv ~clock ?deadline c
            | exception Unix.Unix_error (Unix.EINTR, _, _) ->
                recv ~clock ?deadline c))
