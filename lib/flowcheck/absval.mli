(** The abstract domain of the static dataflow analysis.

    The analyzer never touches concrete addresses: its universe is the
    trace's own vocabulary — object ids and normalized slots. A slot is
    a root-window word or a word inside a live object; normalization
    is {!Workloads.Trace}'s index rule, the one every replay resolves a
    location with, so two location expressions that land on the same
    concrete word always collapse to the same abstract slot. *)

type slot =
  | Root_slot of int  (** root-window word, already wrapped *)
  | Field_slot of int * int  (** (holder id, word index wrapped into it) *)

val slot_compare : slot -> slot -> int
val slot_to_string : slot -> string

val normalize_root : int -> slot
(** The slot {!Workloads.Trace.root_word} names. *)

val normalize_field : id:int -> size:int -> int -> slot option
(** The slot {!Workloads.Trace.field_word} names inside the holder;
    [None] when the holder has no addressable words ([size < 8]), where
    replay skips the store. *)

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

val target_id : target -> int option
val target_to_string : target -> string

val classify_data : int -> [ `Harmless | `Alias of int | `Wild ]
(** Classify a raw [Store_data] value: values {!Workloads.Trace.aliased_id}
    decodes encode the address of an object; other values at or above
    {!Layout.heap_base} could numerically alias a heap word ([`Wild]);
    everything else can never cause the sweep to mark ([`Harmless]). *)
