type phase =
  | Mark
  | Scan
  | Purge
  | Quarantine
  | Alloc_slow
  | Race
  | Request
  | Stage

let phase_name = function
  | Mark -> "mark"
  | Scan -> "scan"
  | Purge -> "purge"
  | Quarantine -> "quarantine"
  | Alloc_slow -> "alloc_slow"
  | Race -> "race"
  | Request -> "request"
  | Stage -> "stage"

let phase_of_name = function
  | "mark" -> Some Mark
  | "scan" -> Some Scan
  | "purge" -> Some Purge
  | "quarantine" -> Some Quarantine
  | "alloc_slow" -> Some Alloc_slow
  | "race" -> Some Race
  | "request" -> Some Request
  | "stage" -> Some Stage
  | _ -> None

type span = {
  seq : int;
  phase : phase;
  label : string;
  t_start : int;
  t_end : int;
  bytes : int;
  attrs : (string * int) list;
}

let max_attrs = 3

(* The spans live in parallel arrays, one per field: slot [i] holds
   [phases.(i)], [labels.(i)], ..., and its first [arity.(i)] attributes
   at [i * max_attrs + j] in [keys] and [values]. Emitting a span writes
   ints and shared strings into a slot and allocates nothing; [spans]
   builds the records when they are read. The slots start at
   [initial_slots] and double when full, up to [capacity]: a ring that
   sees few spans never pays for the rest. [next] is the slot of the
   next span; it returns to 0 once the slots reach [capacity], where the
   next span evicts the oldest. *)
type t = {
  capacity : int;
  mutable phases : phase array;
  mutable labels : string array;
  mutable starts : int array;
  mutable ends : int array;
  mutable bytes : int array;
  mutable arity : int array;
  mutable keys : string array;
  mutable values : int array;
  mutable next : int;
  mutable emitted : int;
}

let initial_slots = 16

let create ?(capacity = 1024) () =
  assert (capacity > 0);
  let n = min capacity initial_slots in
  {
    capacity;
    phases = Array.make n Mark;
    labels = Array.make n "";
    starts = Array.make n 0;
    ends = Array.make n 0;
    bytes = Array.make n 0;
    arity = Array.make n 0;
    keys = Array.make (n * max_attrs) "";
    values = Array.make (n * max_attrs) 0;
    next = 0;
    emitted = 0;
  }

let capacity t = t.capacity

let grow t =
  let n = Array.length t.starts in
  let m = min t.capacity (2 * n) in
  let extend a per fill =
    let b = Array.make (m * per) fill in
    Array.blit a 0 b 0 (n * per);
    b
  in
  t.phases <- extend t.phases 1 Mark;
  t.labels <- extend t.labels 1 "";
  t.starts <- extend t.starts 1 0;
  t.ends <- extend t.ends 1 0;
  t.bytes <- extend t.bytes 1 0;
  t.arity <- extend t.arity 1 0;
  t.keys <- extend t.keys max_attrs "";
  t.values <- extend t.values max_attrs 0

(* Fill the next slot with everything but the attribute pairs, and
   return its index. *)
let claim t ~phase ~label ~t_start ~t_end ~bytes ~arity =
  if t.next = Array.length t.starts then grow t;
  let i = t.next in
  t.phases.(i) <- phase;
  t.labels.(i) <- label;
  t.starts.(i) <- t_start;
  t.ends.(i) <- t_end;
  t.bytes.(i) <- bytes;
  t.arity.(i) <- arity;
  t.next <- (if i + 1 = t.capacity then 0 else i + 1);
  t.emitted <- t.emitted + 1;
  i

let rec fill_attrs t j = function
  | [] -> ()
  | (k, v) :: rest ->
    t.keys.(j) <- k;
    t.values.(j) <- v;
    fill_attrs t (j + 1) rest

let emit t ~phase ~label ~t_start ~t_end ?(bytes = 0) ?(attrs = []) () =
  let arity = List.length attrs in
  if arity > max_attrs then
    invalid_arg "Trace_ring.emit: a span carries at most 3 attributes";
  let i = claim t ~phase ~label ~t_start ~t_end ~bytes ~arity in
  fill_attrs t (i * max_attrs) attrs

let event t phase label ~now ~attrs k0 v0 k1 v1 =
  if attrs < 0 || attrs > 2 then
    invalid_arg "Trace_ring.event: attrs must be 0, 1 or 2";
  let i = claim t ~phase ~label ~t_start:now ~t_end:now ~bytes:0 ~arity:attrs in
  let j = i * max_attrs in
  t.keys.(j) <- k0;
  t.values.(j) <- v0;
  t.keys.(j + 1) <- k1;
  t.values.(j + 1) <- v1

type pending = { p_phase : phase; p_label : string; p_start : int }

let enter ~now phase label = { p_phase = phase; p_label = label; p_start = now }

let exit t p ~now ?bytes ?attrs () =
  emit t ~phase:p.p_phase ~label:p.p_label ~t_start:p.p_start ~t_end:now
    ?bytes ?attrs ()

let emitted t = t.emitted
let retained t = min t.emitted t.capacity
let wrapped t = t.emitted > t.capacity

let span_at t ~seq i =
  let base = i * max_attrs in
  {
    seq;
    phase = t.phases.(i);
    label = t.labels.(i);
    t_start = t.starts.(i);
    t_end = t.ends.(i);
    bytes = t.bytes.(i);
    attrs = List.init t.arity.(i) (fun j -> (t.keys.(base + j), t.values.(base + j)));
  }

(* Oldest first: once the ring has wrapped, the oldest span sits in the
   slot the next one will overwrite. *)
let spans t =
  let n = retained t in
  let first = if wrapped t then t.next else 0 in
  List.init n (fun k ->
      span_at t ~seq:(t.emitted - n + k) ((first + k) mod t.capacity))
