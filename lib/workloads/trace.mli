(** Portable allocation traces: generate, serialise, replay.

    A trace is a self-contained program of allocator events — object
    ids, not addresses — so the same workload can be replayed bit-for-
    bit against any allocator stack, saved to a text file, inspected or
    edited by hand, and shared (the role SPEC run scripts play in the
    paper's artifact). {!generate} derives a trace from a {!Profile.t};
    {!replay} executes one against a {!Harness.t}. The paper figures'
    own programs ({!Driver.program}, {!Server.program}) are traces too:
    their runners stream the same ops through {!exec}. *)

type location =
  | Root of int  (** word index into the root window of the stack *)
  | Global of int  (** word index into the globals window *)
  | Field of int * int  (** object id, word index within the object *)

type op =
  | Alloc of { id : int; size : int; site : int }
      (** allocation attributed to static site [site]. Serialised as
          [a id size site], with the site column omitted when 0 so
          site-free traces keep the compact v1 form. Site ids outside
          [0, sites) alias site 0 (flagged by the
          [alloc-site-out-of-range] lint rule). *)
  | Store_ptr of { loc : location; target : int }
      (** instrumented pointer store: [&target] written at [loc] *)
  | Clear_ptr of { loc : location; target : int }
      (** well-behaved clear: write 0 at [loc] if it still points at
          [target] *)
  | Store_data of { loc : location; value : int }
      (** raw data write (never instrumented) *)
  | Store_interior of { loc : location; target : int; word : int }
      (** raw data write of the address of word [word] of object
          [target]: an unlucky integer that points inside a live object *)
  | Zero of location
      (** write 0 at [loc], as a dying stack frame does to its locals;
          instrumented when the slot held a heap-range value *)
  | Free of { id : int; thread : int }
      (** free issued from logical thread [thread] — selects the
          quarantine's thread-local buffer at replay. Ids outside
          [0, threads) alias buffer 0 (flagged by the
          [free-thread-out-of-range] lint rule). *)
  | Work of int  (** application compute, cycles *)

type t = {
  name : string;
  threads : int;
      (** declared mutator thread count; serialised as a [# threads N]
          header line (omitted, and 1, for single-threaded traces) *)
  sites : int;
      (** declared allocation-site count; serialised as a [# sites N]
          header line (omitted, and 1, for site-free traces, so old
          traces parse unchanged) *)
  ops : op array;
}

val clamp_site : sites:int -> int -> int
(** [clamp_site ~sites site] is [site] when it lies in [0, sites) and 0
    otherwise — the aliasing rule replay and analysis share. *)

val site_of_size : sites:int -> int -> int
(** The generator's stable site key: the log2 size-class bucket of the
    request folded onto [0, sites). A pure function of the size so
    trace generation, [Driver]'s synthetic load, and any re-derivation
    agree on the attribution. *)

val root_window_words : int
(** Size of the root window in words, starting at {!Layout.stack_base}. *)

val globals_window_words : int
(** Size of the globals window in words ({!Layout.globals_size} / 8),
    starting at {!Layout.globals_base}. *)

(** A growing array of ops: how {!generate}, {!of_string},
    {!Driver.program} and {!Server.program} collect their ops, at no
    allocation beyond the ops themselves and the array. *)
module Op_buffer : sig
  type t

  val create : unit -> t
  val add : t -> op -> unit

  val contents : t -> op array
  (** The ops added so far, in order. *)
end

val generate : ?seed:int -> Profile.t -> t
(** Derive a concrete trace from a profile: allocations with sampled
    sizes, deaths on schedule, pointer publications and (mostly) clears
    before frees, occasional unlucky integers. Deterministic in the
    seed.

    Each op costs O(log ops): the live set is a Fenwick tree over the
    allocation ids. Whenever an op needs a live object (a holder for a
    field store, the target of an unlucky integer), it draws [n]
    uniformly from [[0, live)] and takes the live object of rank [n],
    ranked from the most recently allocated (rank 0). That pick rule,
    with the draws in their fixed order, is what fixes the trace bytes
    for a seed.

    This is a simpler program than the one the paper's figures run for
    the same profile ({!Driver.program}): it has no back pointers,
    globals-window roots, interior pointers, stack churn, phase
    teardowns or threads. *)

(** {1 What an op means}

    This section is the only statement of a trace's semantics: every
    replay and every runner (the figures' {!Driver.run}, [serve] and
    each fleet tenant through {!Server}, {!replay}, the sweep and pool
    oracles, the race recorder) executes ops through {!exec},
    and the lint pass and the static analyzer read a trace through
    {!Absheap}, which resolves indices with {!root_word},
    {!global_word} and {!field_word}.

    {b Objects.} The interpreter keeps one table from object id to
    (address, size): [Alloc] enters the address its target returned
    (replacing any entry under the same id), [Free] of a live id
    removes it. An id is {e live} while it is in the table. Any integer
    is a valid id, negative ones included.

    {b Index rule.} Word indices wrap into range by Euclidean modulo:
    [Root w] names word [w mod root_window_words] of the root window,
    [Global w] word [w mod globals_window_words] of the globals window
    and [Field (id, w)] word [w mod (size / 8)] of object [id], each
    [mod] taken in [[0, n)], so [-1] is the last word and [n] the
    first.

    {b Skip rule.} A store, clear, data write or zeroing does nothing
    when its holder is not live (freed or never allocated), is under 8
    bytes (no addressable word), or its slot is not mapped, committed
    and read-write. A pointer store or clear also does nothing when its
    target is not live; a clear writes 0 only if the slot still holds
    the target's address. A free of an id that is not live does
    nothing. A negative [Store_data] value [v] writes the address of
    object [-v - 1] (0 when that object is not live): the generator's
    unlucky integer. [Store_interior] writes the address of word
    {!interior_word} of its target (0 when the target is not live).
    [Zero] writes 0 and is reported as a pointer store when the old
    value lay in the heap window ({!Layout.in_heap}), as a data write
    otherwise. Site ids alias through {!clamp_site}; thread ids are
    passed through unchanged (the quarantine aliases them). *)

val root_word : int -> int
(** The root-window word a [Root] index names, in [[0, root_window_words)]. *)

val global_word : int -> int
(** The globals-window word a [Global] index names, in
    [[0, globals_window_words)]. *)

val field_word : size:int -> int -> int option
(** The word a [Field] index names inside an object of [size] bytes, in
    [[0, size / 8)]; [None] when [size < 8]. *)

val interior_word : size:int -> int -> int
(** The word of an object of [size] bytes a [Store_interior] points at,
    in [[0, max 1 (size / 8))]: word 0 for an object under 8 bytes. *)

val aliased_id : int -> int option
(** [Some id] when a [Store_data] value encodes the address of object
    [id] (a negative value [-id - 1]), [None] for a plain integer. *)

type target = {
  alloc : id:int -> site:int -> int -> int;
      (** serve [Alloc]: the object's address; [site] is already clamped *)
  free : id:int -> thread:int -> int -> unit;
      (** [Free] of a live object, at its address; it is no longer live *)
  pointer_store : slot:int -> old_value:int -> value:int -> unit;
      (** after an instrumented pointer store, clear or zeroing wrote
          [value] (the target's address, or 0) over [old_value] *)
  data_store : slot:int -> unit;  (** after a raw data write to [slot] *)
  after_op : int -> unit;  (** after every op, skipped or not, by index *)
}
(** What a replay does with each resolved op. {!exec} performs the
    memory writes and charges [Work] itself; a target only observes
    them and supplies the allocator. *)

val exec : sites:int -> Alloc.Machine.t -> target -> op -> unit
(** [exec ~sites machine target] is a fresh interpreter with an empty
    object table: apply it to one op at a time, in program order, and
    it performs that op under the rules above, writing the machine's
    memory (whose root regions must be mapped). Ops are numbered from 0
    for [after_op]; [sites] is the site count {!clamp_site} aliases
    against. Partially apply it once per program: each application to
    [~sites], [machine] and [target] starts a new table. *)

val run : t -> Alloc.Machine.t -> target -> unit
(** {!exec} over every op of the trace, in order. *)

(** {1 Serving a stack}

    {!serve} is the only target that hands a program's ops to an
    allocator: the figures' runs ({!Driver.run}), every [serve] and
    fleet session ({!Server}), {!replay} and every referee. It does not
    tick the stack; each runner keeps its own step rule and ticks it
    itself:
    - {!Driver.run} after each program step's closing [Work];
    - a {!Server} session after each request;
    - a trace replay ({!replay}, {!replay_observed}, the referees'
      replays and the schedule explorer's) after each allocation,
      through {!ticking}. A trace file has no steps to end, and the
      generated traces' replay reports are pinned to this rule.

    A referee lays its own target over the serving target and only
    observes, so the run it judges is the run without it. *)

val serve : ?sensitivity:float -> Harness.t -> target
(** The stack's serving target: [Alloc] allocates through the stack
    ([malloc_site] when it has one, [malloc] otherwise) and charges
    [sensitivity] (default 0) times its [cold_penalty] of the size to
    the application; [Free] calls [free]; pointer stores reach
    [on_pointer_write]. *)

val ticking : Harness.t -> target -> target
(** A trace replay's step rule over a target: the stack ticks after
    each allocation. *)

val replay : t -> Harness.t -> int
(** {!run} against a stack, through {!ticking} over {!serve}, then
    [drain]. Returns the number of operations executed. *)

val replay_observed :
  t -> Harness.scheme -> (Harness.t -> target -> target) -> unit
(** [replay_observed t scheme observe] is a referee's replay:
    {!Harness.fresh} builds a stack of [scheme] for the trace's
    threads, [observe] receives it and lays its layers over {!ticking}
    over {!serve}, {!run} executes the trace and the stack drains. *)

val length : t -> int
val allocation_count : t -> int

(** {1 Text serialisation} *)

val to_string : t -> string

exception Parse_error of { line : int; message : string }
(** Malformed input: the 1-based line number and what is wrong with it —
    an unrecognised op, a field that is not an integer (the message names
    the field), a [# threads] or [# sites] header below 1, or an [Alloc]
    size below 0 or above [Layout.heap_limit - Layout.heap_base]
    (273,804,165,120 bytes, the heap window: no replay could serve it). *)

val of_string : string -> t
(** @raise Parse_error on malformed input. *)

val to_file : t -> string -> unit

val of_file : string -> t
(** @raise Parse_error on malformed input.
    @raise Sys_error when the file cannot be read. *)

(** {1 Chunked streaming}

    A one-pass, constant-memory view of a trace: ops are pulled through
    a bounded chunk buffer ([chunk_ops], default 4096) instead of being
    materialised as an array. [stream_of_file] reads the file line by
    line, so folding a stream holds at most one chunk of ops plus the
    consumer's own state — memory independent of trace length. The
    chunked fold and {!of_string} share one line scanner, so they agree
    exactly (including parse errors and their line numbers). A line
    splits into tokens on runs of spaces; an integer field takes any
    spelling [int_of_string] does (hex, octal and binary prefixes, ['_'],
    a leading ['+']). *)

type stream

val default_chunk_ops : int
(** 4096. *)

val stream_of_string : ?chunk_ops:int -> string -> stream
(** @raise Parse_error when a line before the first op is malformed
    (header lines are read at construction). *)

val stream_of_file : ?chunk_ops:int -> string -> stream
(** As {!stream_of_string}, reading the file a line at a time (a parse
    error at construction closes it).
    @raise Sys_error when the file cannot be opened. *)

val stream_of_trace : ?chunk_ops:int -> t -> stream

val stream_name : stream -> string
(** Trace name. Header lines at the top of the input are consumed at
    stream construction; a header buried below the first op is only
    reflected once the fold has passed it. *)

val stream_threads : stream -> int
(** Declared mutator thread count (see {!stream_name} for timing). *)

val stream_sites : stream -> int
(** Declared allocation-site count (see {!stream_name} for timing). *)

val fold_stream : stream -> init:'a -> f:('a -> int -> op -> 'a) -> 'a
(** [fold_stream st ~init ~f] applies [f acc op_index op] over every op
    in order. Single-shot: a stream can only be folded once.
    @raise Parse_error on malformed input.
    @raise Invalid_argument if the stream was already consumed. *)
