(** The six consistency policies of the paper's study, as connectivity-
    driven state machines: MCV, DV, LDV, ODV, TDV, OTDV.

    Drive a policy by calling {!handle_topology_change} whenever the
    network state changes and {!handle_access} whenever the replicated file
    is accessed; {!is_available} is the pure availability probe used as the
    simulator's availability indicator. *)

type kind = Mcv | Dv | Ldv | Odv | Tdv | Otdv

val all_kinds : kind list
(** In the paper's column order: MCV, DV, LDV, ODV, TDV, OTDV. *)

val kind_name : kind -> string
val kind_of_string : string -> kind option

val is_optimistic : kind -> bool
(** True for ODV and OTDV: quorums adjust only at access time. *)

val flavor_of_kind : kind -> Decision.flavor option
(** The decision rule; [None] for the stateless MCV. *)

type view = { components : Site_set.t list }
(** The live sites of the network, partitioned into mutually communicating
    groups.  Sites not holding copies may appear; they are ignored. *)

type recovery = [ `At_access | `At_repair ]
(** When a repaired site runs its RECOVER protocol under the optimistic
    policies: folded into the next access (default; least traffic) or
    immediately, as Figure 3's retry loop suggests. *)

type t

val create :
  ?flavor:Decision.flavor ->
  ?recovery:recovery ->
  kind ->
  universe:Site_set.t ->
  n_sites:int ->
  segment_of:(Site_set.site -> int) ->
  ordering:Ordering.t ->
  t
(** [universe] is the set of sites holding copies; [n_sites] sizes the
    state array (site ids must be < [n_sites]).  [flavor] overrides the
    kind's default decision rule — e.g. pass {!Decision.tdv_safe_flavor}
    to run TDV/OTDV with the freshness correction.
    @raise Invalid_argument on an empty universe. *)

val kind : t -> kind
val universe : t -> Site_set.t
val states : t -> Replica.t array
(** The live state array, for inspection.  Writing to it bypasses the
    policy: {!is_available}'s settled answer would then be stale. *)

val replica : t -> Site_set.site -> Replica.t

val fresh : t -> Site_set.t
(** Sites continuously up since their last commit — the only sites allowed
    to sponsor topological vote claims (TDV/OTDV). *)

val handle_topology_change : t -> view -> unit
(** Site failure/repair or partition change.  DV/LDV/TDV refresh quorums
    immediately (the paper's instantaneous state information); MCV and the
    optimistic policies do nothing. *)

val handle_access : t -> view -> bool
(** A file access; returns whether it was granted.  For ODV/OTDV this is
    when quorum adjustment and site reintegration happen. *)

val handle_repair : t -> view -> site:Site_set.site -> unit
(** Notification that [site] just came back up.  No-op except for
    optimistic policies created with [~recovery:`At_repair], which run the
    site's RECOVER immediately. *)

val is_available : t -> view -> bool
(** Pure probe: would an access succeed now?  Never mutates state.  For
    DV/LDV/TDV, on the very view (physically equal) that the last
    {!handle_topology_change} refreshed, the answer is that refresh's
    result, with no probe — exactly what a probe would return. *)

val pp_states : ?names:string array -> Format.formatter -> t -> unit
