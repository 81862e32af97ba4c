(** The trace's one abstract interpreter.

    {!Trace.run} is what an op does to memory; this module is what it
    does to an abstract heap that never touches an address. Its universe
    is the trace's own vocabulary: object ids and slots. A slot is a
    root-window word, a globals-window word or a word inside an object,
    named after {!Trace.root_word}, {!Trace.global_word} and
    {!Trace.field_word} have wrapped it, so two location expressions
    that land on the same concrete word always collapse to the same
    slot.

    The heap keeps a points-to graph, one binding per slot (the last
    store into it and the op of that store), and a record for each id
    it can still reach: every live id with its size, site and alloc op,
    and a freed id only while some slot binds it or it binds some slot.
    A freed id that is neither is forgotten, so the heap holds live
    state, not history: an id that is not live reads the same whether
    it was freed or never allocated (the lint pass, which tells the
    two apart, keeps its own table of free ops). Its tables are flat
    int arrays ({!Flat_table}, the one {!Trace.exec} keeps its objects
    in), and each target's bindings are a list in store order, so
    {!step} allocates nothing per op but the event it hands back.

    {!step} interprets one op under {!Trace}'s skip rules and hands back
    what happened; the lint pass, the dangling report and the siteflow
    lattice are folds over those events that keep only their own
    diagnostics and accumulators. *)

type slot =
  | Root_slot of int  (** root-window word, already wrapped *)
  | Global_slot of int  (** globals-window word, already wrapped *)
  | Field_slot of int * int  (** (holder id, word index wrapped into it) *)

(** What a slot may hold, as far as the trace shows. *)
type target =
  | Ptr of int  (** an instrumented pointer to object [id] *)
  | Alias of int
      (** a data word whose value is an address inside object [id] — the
          trace's "unlucky integer" (a negative [Store_data], or a
          [Store_interior]) *)
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

(** How a store, clear or raw write's location resolved. *)
type place =
  | Slot of slot  (** the index named a word directly *)
  | Wrapped of { slot : slot; index : int; words : int }
      (** the index rule moved word [index] into a window of [words]
          words (the root window or the holder) *)
  | No_holder of int
      (** holder id not live (freed, or never allocated): the op is
          skipped *)
  | No_words of { holder : int; size : int }
      (** live holder under 8 bytes, no addressable word: skipped *)

(** What one op did. A write whose place did not resolve changed
    nothing. *)
type event =
  | Alloc of { id : int; size : int; site : int; before : id_state option }
      (** [before]: the id's state before this alloc ([Some] reuses a
          live id) *)
  | Free of {
      id : int;
      thread : int;
      before : id_state option;
          (** only a live id is freed; on [None] nothing happened *)
      outside : edge list;
          (** slots outside the object still bound to it, pointer or
              alias, in store-op order *)
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
          (** the integer written: a [Store_data]'s value, 0 for a
              [Zero], and for a [Store_interior] its target's alias
              encoding [-target - 1] *)
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
(** Interpret op number [i] under {!Trace}'s index and skip rules. The
    op numbers of successive steps must increase: the order of [outside]
    and of {!witness_chain}'s holders is the order bindings were made
    in, which is store-op order only then. *)

val is_live : t -> int -> bool

val tracked : t -> int
(** Ids the heap keeps a record for: the live ones, and the freed ones
    some slot still binds or that still bind some slot. *)

val holder_count : t -> int -> int
(** Slots currently bound to object [id] (pointer or alias). *)

val wild_count : t -> int
(** Slots currently holding a heap-range data value. *)

val witness_chain : t -> slot -> (slot * int) list
(** The write chain that keeps a slot reachable: the slot itself (with
    its store op), then — while the slot lives inside an object — a
    deterministic holder of that object (earliest store op wins), up to
    a root slot or a bounded depth. Innermost slot first. *)
