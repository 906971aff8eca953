(* Spans recorded by the benchmark around its calls into each layer,
   kept in memory and written once at the end as Chrome trace-event JSON
   (chrome://tracing, Perfetto).  A span has a name, start, end, its own
   id and its parent's; spans of one operation share the operation's id
   as a prefix.  The untraced recorder drops everything at the cost of a
   branch. *)

module Clock = Dynvote_obs.Clock
open Perfbench

type span = {
  name : string;
  start : float;
  stop : float;  (** [= start] for an instant event *)
  id : string;
  parent : string;
  track : int;  (** the trace's thread row: a site, a client, a worker *)
  args : (string * Json.t) list;
}

type t = {
  on : bool;
  t0 : float;
  cap : int;
  lock : Mutex.t;
  mutable spans : span list;
  mutable kept : int;
  mutable dropped : int;
}

let create ~on =
  { on; t0 = Clock.now (); cap = 250_000; lock = Mutex.create (); spans = [];
    kept = 0; dropped = 0 }

let on t = t.on

let add t ?(parent = "") ?(args = []) ~track ~id ~start ~stop name =
  if t.on then begin
    Mutex.lock t.lock;
    if t.kept < t.cap then begin
      t.spans <- { name; start; stop; id; parent; track; args } :: t.spans;
      t.kept <- t.kept + 1
    end
    else t.dropped <- t.dropped + 1;
    Mutex.unlock t.lock
  end

let time t ?parent ?args ~track ~id name f =
  if not t.on then f ()
  else begin
    let start = Clock.now () in
    Fun.protect
      ~finally:(fun () -> add t ?parent ?args ~track ~id ~start ~stop:(Clock.now ()) name)
      f
  end

let to_json t =
  let us x = Json.Float ((x -. t.t0) *. 1e6) in
  let event s =
    let common =
      [ ("name", Json.String s.name); ("pid", Json.Int 1); ("tid", Json.Int s.track);
        ("ts", us s.start);
        ("args",
          Json.Obj (("id", Json.String s.id) :: ("parent", Json.String s.parent) :: s.args)) ]
    in
    if s.stop > s.start then
      Json.Obj (("ph", Json.String "X") :: ("dur", Json.Float ((s.stop -. s.start) *. 1e6)) :: common)
    else Json.Obj (("ph", Json.String "i") :: ("s", Json.String "t") :: common)
  in
  Json.Obj
    [ ("displayTimeUnit", Json.String "ms");
      ("traceEvents", Json.List (List.rev_map event t.spans));
      ("otherData", Json.Obj [ ("dropped_spans", Json.Int t.dropped) ]) ]

let write t path =
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (Json.to_string (to_json t)))
