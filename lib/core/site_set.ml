(* Sets of site identifiers as immutable machine-word bitsets.  The
   simulator evaluates millions of quorum decisions, each involving a
   handful of set operations, so sets must be allocation-free.  Site ids
   range over 0..61 (one OCaml int, keeping one bit of headroom); the paper
   never needs more than 8. *)

type t = int

type site = int

let max_sites = 62

let empty = 0

let check_site i =
  if i < 0 || i >= max_sites then
    invalid_arg (Printf.sprintf "Site_set: site id %d outside [0, %d)" i max_sites)

let singleton i =
  check_site i;
  1 lsl i

let universe n =
  if n < 0 || n > max_sites then invalid_arg "Site_set.universe: bad size";
  if n = 0 then 0 else (1 lsl n) - 1

let mem i t =
  check_site i;
  t land (1 lsl i) <> 0

let add i t =
  check_site i;
  t lor (1 lsl i)

let remove i t =
  check_site i;
  t land lnot (1 lsl i)

let union a b = a lor b
let inter a b = a land b
let diff a b = a land lnot b
let equal (a : t) (b : t) = a = b
let compare (a : t) (b : t) = Stdlib.compare a b
let is_empty t = t = 0
let subset a b = a land lnot b = 0
let disjoint a b = a land b = 0

(* Kernighan popcount; sets are tiny (<= 8 members) in practice. *)
let cardinal t =
  let rec go n acc = if n = 0 then acc else go (n land (n - 1)) (acc + 1) in
  go t 0

(* The iterators below are top-level recursions, not local closures over
   [t] or [f], so they allocate nothing themselves. *)
let rec lowest t i = if t land (1 lsl i) <> 0 then i else lowest t (i + 1)

let rec highest t i = if t land (1 lsl i) <> 0 then i else highest t (i - 1)

let min_elt t =
  if t = 0 then raise Not_found;
  lowest t 0

let max_elt t =
  if t = 0 then raise Not_found;
  highest t (max_sites - 1)

let choose = min_elt

let rec fold f t acc = if t = 0 then acc else fold f (t land (t - 1)) (f (lowest t 0) acc)

let rec iter f t =
  if t <> 0 then begin
    f (lowest t 0);
    iter f (t land (t - 1))
  end

let rec for_all p t = t = 0 || (p (lowest t 0) && for_all p (t land (t - 1)))

let rec exists p t = t <> 0 && (p (lowest t 0) || exists p (t land (t - 1)))

let filter p t = fold (fun i acc -> if p i then add i acc else acc) t empty

let of_list l = List.fold_left (fun acc i -> add i acc) empty l

let to_list t = List.rev (fold (fun i acc -> i :: acc) t [])

let to_int t = t

let of_int_unsafe i = i

let pp ppf t =
  Fmt.pf ppf "{%a}" Fmt.(list ~sep:(any ", ") int) (to_list t)

let pp_names names ppf t =
  let name i = if i >= 0 && i < Array.length names then names.(i) else string_of_int i in
  Fmt.pf ppf "{%a}" Fmt.(list ~sep:(any ", ") string) (List.map name (to_list t))
