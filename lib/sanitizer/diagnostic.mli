(** Structured findings shared by the sanitizer's passes.

    Every lint rule, invariant audit and oracle check reports through
    this one shape so callers (CLI, tests, CI gate) can filter, count
    and render findings uniformly. *)

type severity =
  | Error  (** the trace/stack is ill-formed — would be UB as a C program *)
  | Warning  (** legal but suspicious — e.g. the paper's UAF precondition *)

type t = {
  rule : string;  (** stable rule id, e.g. ["double-free"] *)
  severity : severity;
  op_index : int;  (** 0-based index into the trace's op array; -1 when
                       the finding is not tied to a trace position *)
  message : string;
}

val make : rule:string -> severity:severity -> ?op_index:int -> string -> t

val severity_to_string : severity -> string
val to_string : t -> string

val errors : t list -> t list

val has_rule : string -> t list -> bool

val sort : t list -> t list
(** Canonical report order: (rule, op index, message). Printing and
    exports sort through this so reports are byte-stable across runs
    and usable in cmp-based CI gates (the message embeds the address
    when a finding carries one, so equal-rule, equal-op findings still
    order deterministically). *)
