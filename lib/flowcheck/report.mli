(** The one-pass analyzer: fold a trace stream's {!Workloads.Absheap}
    events and emit the static UAF-exposure report, retention
    predictions and per-policy bounds.

    No Vmem, no Instance, no replay: state is the abstract heap (the
    live points-to graph and a record per live or still-bound id) plus
    the dangling windows, and the analyzer reads the trace through
    {!Workloads.Trace.fold_stream}, one chunk of ops at a time, so its
    memory is one chunk plus live state.

    Prediction contract (the soundness argument, DESIGN §11): every
    dynamic [oracle-unsound] id is in [predicted_unsound], and every
    dynamic [oracle-retention] id is in [predicted_retained] —
    {!Sanitizer.Sweep_oracle.certify_static} enforces zero static false
    negatives. *)

(** Dangling windows. An object's window opens at the [Free] that
    leaves at least one slot outside it bound to it (the paper's Section
    3.2 precondition: exactly the state in which MineSweeper must keep
    the extent quarantined) and closes when the last such slot dies —
    overwritten, cleared, or its holder freed. Lengths are in trace
    ops. *)
type window_stats = {
  opened : int;
  closed : int;
  open_at_end : int;  (** windows still open when the trace ended *)
  max_len : int;
      (** longest window (open windows measured to the end of the trace) *)
  total_len : int;
}

type t = {
  trace_name : string;
  threads : int;
  ops : int;
  allocs : int;
  frees : int;
  findings : Sanitizer.Diagnostic.t list;  (** sorted (rule, op, message) *)
  predicted_unsound : int list;
      (** ids freed with a surviving instrumented-pointer edge: if the
          backend recycles one of these while the pointer lives, that is
          the oracle's soundness violation *)
  predicted_retained : int list;
      (** superset of ids conservative sweeping may retain with no
          registry pointer: surviving pointer or alias edges, frees
          under live wild data, sub-granule extents *)
  windows : window_stats;
  wild_stores : int;
  subgranule_frees : int;
  bounds : Policy.bounds list;
}

val analyze : ?policies:Policy.t list -> Workloads.Trace.stream -> t
(** Consumes the stream (single pass). The first MineSweeper policy (or
    the default configuration if none) fixes the heap's semantics:
    its zeroing decides whether interior slots die at free; its shadow
    granule decides the sub-granule retention class.
    @raise Workloads.Trace.Parse_error on malformed input. *)

val analyze_trace : ?policies:Policy.t list -> Workloads.Trace.t -> t

val to_json : ?pools:Poolplan.t -> t -> string
(** One line of deterministic JSON (schema [msweep-flowcheck-v2]):
    integers and strings only, fields in fixed order — byte-identical
    across runs on equal input. v2 keeps every v1 field unchanged (name,
    type, order) and appends [sites] and [pools], carrying the pooling
    analysis when [?pools] is given and empty arrays otherwise, so v1
    consumers remain correct on v2 documents. *)

val json_field : string -> string -> string option
(** [json_field doc key]: tolerant top-level field extractor (raw value
    text, trimmed of nothing). String- and bracket-aware but schema
    agnostic: reads v1 and v2 documents alike, which is the
    compatibility contract the schema bump relies on. *)

val render : t -> string
(** Human-readable multi-line summary (findings sorted). *)

val check_bounds :
  t ->
  policy:string ->
  peak_quarantine_bytes:int ->
  swept_bytes:int ->
  sweeps:int ->
  Sanitizer.Diagnostic.t list
(** Differential regression detector: compare measured [ms.*] values
    from a dynamic replay against the static bounds of [policy].
    Returns [flow-bound-occupancy] / [flow-bound-swept] /
    [flow-bound-sweeps] errors for every exceeded bound (empty when the
    bounds dominate, as they must). *)

val corpus_expectations : (string * string list) list
(** Expected flowcheck rule sets for each {!Sanitizer.Corpus} lint case
    (cases whose badness is not a dangling-pointer exposure expect
    the empty set). *)

val corpus_self_test : unit -> (string * string list * string list * bool) list
(** [(name, expected, got, passed)] per corpus case. *)
