(** Bounded structured trace ring: the span store behind the stack's
    tracing.

    Spans carry a phase tag (the five cost centres of a sweeping
    allocator), a free-form label, simulated-clock timestamps, the
    cost-model bytes the phase charged, and at most three integer
    attributes. The ring is bounded: once it holds [capacity] spans, each
    emission evicts the oldest retained span, so tracing can stay on in
    production configurations. An instantaneous event is a span with
    [t_start = t_end].

    Storage is flat: one array per field (phase, label, start, end,
    bytes, attribute count) and three key/value attribute slots per
    span, so the ring allocates nothing when a span is emitted ({!event}
    takes its attributes as arguments, so its caller builds nothing
    either), and {!spans} builds the records only when they are read.
    The arrays start small and double when full, up to [capacity]: a
    ring that sees few spans never pays for the rest. *)

type phase =
  | Mark  (** marking phase of a sweep (full or incremental) *)
  | Scan  (** stop-the-world dirty-page re-scan *)
  | Purge  (** post-sweep allocator purge *)
  | Quarantine  (** quarantine traffic: free intercepts, release phase *)
  | Alloc_slow  (** allocation slow path (allocation pauses) *)
  | Race  (** race-checker window: lock-in to sweep completion, and detected race spans *)
  | Request  (** server-family request processing (slow-request spans) *)
  | Stage  (** sweep-pipeline stage execution (mark/merge/release/purge) *)

val phase_name : phase -> string
val phase_of_name : string -> phase option

type span = {
  seq : int;  (** emission index, monotonically increasing, never reused *)
  phase : phase;
  label : string;
  t_start : int;  (** simulated cycles *)
  t_end : int;
  bytes : int;  (** cost-model bytes charged by the phase; 0 if n/a *)
  attrs : (string * int) list;  (** at most three, in emission order *)
}

type t

val create : ?capacity:int -> unit -> t
(** Default capacity: 1024 spans. The slots grow to it as spans
    arrive. *)

val capacity : t -> int

val emit :
  t ->
  phase:phase ->
  label:string ->
  t_start:int ->
  t_end:int ->
  ?bytes:int ->
  ?attrs:(string * int) list ->
  unit ->
  unit
(** Raises [Invalid_argument] on more than three attributes: the ring
    drops none. *)

val event :
  t -> phase -> string -> now:int -> attrs:int -> string -> int -> string ->
  int -> unit
(** [event t phase label ~now ~attrs k0 v0 k1 v1] emits the instantaneous
    span [label] at [now] carrying the first [attrs] (0, 1 or 2) of the
    attributes [k0 = v0], [k1 = v1] — the span [emit] records for
    [~t_start:now ~t_end:now ~attrs:[...]], without the list. The
    instance's per-call lifecycle events ([free], [double-free],
    [unmap]) go through here. Raises [Invalid_argument] when [attrs] is
    outside 0–2. *)

type pending
(** An entered-but-not-exited span (the begin half of a begin/end
    profiling hook). *)

val enter : now:int -> phase -> string -> pending

val exit :
  t -> pending -> now:int -> ?bytes:int -> ?attrs:(string * int) list ->
  unit -> unit
(** Complete a pending span and emit it. *)

val spans : t -> span list
(** Retained spans, oldest first, built afresh on every call. *)

val emitted : t -> int
(** Total spans ever emitted (≥ retained once the ring wraps). *)

val retained : t -> int

val wrapped : t -> bool
(** Whether eviction has discarded any span yet — when [false], [spans]
    is the complete history of the run. *)
