(** The trace's one abstract interpreter.

    {!Trace.run} is what an op does to memory; this module is what it
    does to an abstract heap that never touches an address. Its universe
    is the trace's own vocabulary: object ids and slots. A slot is a
    root-window word or a word inside an object, named after
    {!Trace.root_word} and {!Trace.field_word} have wrapped it, so two
    location expressions that land on the same concrete word always
    collapse to the same slot.

    The heap keeps every id's record (live with its size, site and
    alloc op, or freed with its free op) and a points-to graph: one
    binding per slot, the last store into it and the op of that store.
    {!step} interprets one op under {!Trace}'s skip rules and hands back
    what happened; the lint pass, the dangling report and the siteflow
    lattice are folds over those events that keep only their own
    diagnostics and accumulators. *)

type slot =
  | Root_slot of int  (** root-window word, already wrapped *)
  | Field_slot of int * int  (** (holder id, word index wrapped into it) *)

(** What a slot may hold, as far as the trace shows. *)
type target =
  | Ptr of int  (** an instrumented pointer to object [id] *)
  | Alias of int
      (** a data word whose value is the address of object [id] — the
          trace's encoded "unlucky integer" (negative [Store_data]) *)
  | Wild
      (** a data word whose value lies in the heap address range: it may
          alias any allocation, so the conservative sweep may mark
          anything through it *)

type binding = target * int
(** What a slot holds and the op index of the store that put it there. *)

type edge = slot * target * int
(** A slot with its binding. *)

type id_state =
  | Live of { size : int; site : int; alloc_op : int }
      (** [site] as written in the trace, not clamped *)
  | Dead of { free_op : int }

(** How a store, clear or data write's location resolved. *)
type place =
  | Slot of slot  (** the index named a word directly *)
  | Wrapped of { slot : slot; index : int; words : int }
      (** the index rule moved word [index] into a window of [words]
          words (the root window or the holder) *)
  | Unallocated of int  (** holder id never allocated: the op is skipped *)
  | Holder_dead of { holder : int; free_op : int }
      (** holder freed at [free_op]: the op is skipped *)
  | No_words of { holder : int; size : int }
      (** live holder under 8 bytes, no addressable word: skipped *)

(** What one op did. A write whose place did not resolve changed
    nothing. *)
type event =
  | Alloc of { id : int; size : int; site : int; before : id_state option }
      (** [before]: the id's record before this alloc ([Some] reuses it) *)
  | Free of {
      id : int;
      thread : int;
      before : id_state option;
          (** only a [Live] record is freed; otherwise nothing happened *)
      outside : edge list;
          (** slots outside the object still bound to it, pointer or
              alias, sorted by (store op, slot) *)
      dropped : edge list;
          (** bindings held inside the object, which a zeroing heap
              removed at the free; in no particular order *)
    }
  | Store of {
      place : place;
      target : int;
      target_state : id_state option;
      displaced : binding option;
          (** the slot's previous binding, when the pointer was stored
              (resolved place, live target) *)
    }
  | Clear of {
      place : place;
      cleared : binding option;
          (** the binding removed: the slot held the live target, as a
              pointer or an alias *)
    }
  | Data of {
      place : place;
      value : int;
      stored : target option;
          (** the new binding: [Alias] for the address of a live object,
              [Wild] for a heap-range integer, [None] when the write
              leaves the slot holding nothing (any other value) *)
      displaced : binding option;
    }
  | Work

type t

val create : zeroing:bool -> t
(** [zeroing]: whether a free zeroes the object, removing every binding
    held inside it. MineSweeper zeroes on free; the pooled backend does
    not, so edges held inside freed holders persist until reuse. *)

val step : t -> int -> Trace.op -> event
(** Interpret op number [i] under {!Trace}'s index and skip rules. *)

val is_live : t -> int -> bool

val holder_count : t -> int -> int
(** Slots currently bound to object [id] (pointer or alias). *)

val wild_count : t -> int
(** Slots currently holding a heap-range data value. *)

val witness_chain : t -> slot -> (slot * int) list
(** The write chain that keeps a slot reachable: the slot itself (with
    its store op), then — while the slot lives inside an object — a
    deterministic holder of that object (earliest store op wins), up to
    a root slot or a bounded depth. Innermost slot first. *)
