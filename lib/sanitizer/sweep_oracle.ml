module Instance = Minesweeper.Instance
module Registry = Ptrtrack.Registry
module Trace = Workloads.Trace

type report = {
  trace_name : string;
  ops : int;
  allocs : int;
  frees : int;
  releases : int;
  sweeps : int;
  soundness : Diagnostic.t list;
  precision : Diagnostic.t list;
  audit : Diagnostic.t list;
  unsound_ids : int list;
  retained_ids : int list;
}

let findings r = r.soundness @ r.precision @ r.audit

let ground_truth registry ~usable ~zeroing (on : Trace.target) =
  let drop_slots_in addr =
    Registry.drop_slots_in registry ~base:addr ~usable:(usable addr)
      (fun ~slot:_ ~target:_ -> ())
  in
  {
    on with
    Trace.alloc =
      (fun ~id ~site size ->
        let addr = on.alloc ~id ~site size in
        (* The backend zeroes fresh memory; any records inside it belong
           to a dead incarnation. *)
        drop_slots_in addr;
        addr);
    free =
      (fun ~id ~thread addr ->
        (* Zeroing destroys the pointers stored inside the freed object:
           forget them while the object is still live to measure. *)
        if zeroing then drop_slots_in addr;
        on.free ~id ~thread addr);
    (* Every pointer-typed write is recorded: memory and ground truth
       stay in lock-step. *)
    pointer_store =
      (fun ~slot ~old_value ~value ->
        Registry.record_write registry ~slot ~value;
        on.pointer_store ~slot ~old_value ~value);
    (* Not a pointer: the write overwrote any tracked pointer in the
       slot but records nothing — this is exactly the coverage gap
       between ground truth and the conservative sweep. *)
    data_store =
      (fun ~slot ->
        Registry.forget_slot registry ~slot;
        on.data_store ~slot);
  }

(* One still-quarantined allocation under observation. *)
type tracked = {
  id : int;
  eligible_from : int;
      (** completed-sweep count after which a completion could have
          locked this entry in: a sweep already in flight at free time
          fixed its lock-in set earlier and never observed the entry,
          so its completion is no retention evidence *)
  mutable clean_sweeps : int;  (** consecutive completed sweeps that
                                   locked the entry in and found no
                                   ground-truth pointer to it *)
  mutable reported : bool;
}

type t = {
  ms : Instance.t;
  registry : Registry.t;
  latency_sweeps : int;
  quarantined : (int, tracked) Hashtbl.t;
      (** addr -> tracked, for every allocation currently in quarantine *)
  mutable completed : int;  (** sweeps completed, counted by the hook *)
  mutable ops : int;  (** ops finished: the index of the op running *)
  mutable allocs : int;
  mutable frees : int;
  mutable soundness : Diagnostic.t list;  (** newest first *)
  mutable precision : Diagnostic.t list;  (** newest first *)
  mutable audit : Diagnostic.t list;
  mutable unsound_ids : int list;
  mutable retained_ids : int list;
}

(* Only a completing sweep releases anything, and only a completion is
   retention evidence: the post-sweep hook judges each completion where
   it happens, whichever runner's tick completed it, with the registry
   as the op running then left it. *)
let check t =
  let c = t.completed and op_index = t.ops in
  (* Quarantine membership dropped => the sweep recycled the entry. *)
  let released =
    Hashtbl.fold
      (fun addr tr acc ->
        if Instance.is_quarantined t.ms addr then acc else (addr, tr) :: acc)
      t.quarantined []
  in
  List.iter
    (fun (addr, (tr : tracked)) ->
      Hashtbl.remove t.quarantined addr;
      let n = Registry.in_pointer_count t.registry ~base:addr in
      if n > 0 then begin
        t.unsound_ids <- tr.id :: t.unsound_ids;
        t.soundness <-
          Diagnostic.make ~rule:"oracle-unsound" ~severity:Diagnostic.Error
            ~op_index
            (Printf.sprintf
               "id %d (addr %#x) recycled while %d live pointer(s) to it \
                exist"
               tr.id addr n)
          :: t.soundness
      end)
    released;
  Hashtbl.iter
    (fun addr (tr : tracked) ->
      if Registry.in_pointer_count t.registry ~base:addr = 0 then begin
        if c > tr.eligible_from then tr.clean_sweeps <- tr.clean_sweeps + 1;
        if tr.clean_sweeps >= t.latency_sweeps && not tr.reported then begin
          tr.reported <- true;
          t.retained_ids <- tr.id :: t.retained_ids;
          t.precision <-
            Diagnostic.make ~rule:"oracle-retention"
              ~severity:Diagnostic.Warning ~op_index
              (Printf.sprintf
                 "id %d (addr %#x) still quarantined after %d consecutive \
                  sweeps with no live pointers (conservative retention)"
                 tr.id addr tr.clean_sweeps)
            :: t.precision
        end
      end
      else tr.clean_sweeps <- 0)
    t.quarantined

let attach ?(latency_sweeps = 3) ?(audit = true) ms =
  let t =
    {
      ms;
      registry = Registry.create (Instance.jemalloc ms);
      latency_sweeps;
      quarantined = Hashtbl.create 4096;
      completed = 0;
      ops = 0;
      allocs = 0;
      frees = 0;
      soundness = [];
      precision = [];
      audit = [];
      unsound_ids = [];
      retained_ids = [];
    }
  in
  (* Every sweep ends in this hook, after its release stage. *)
  Instance.set_post_sweep_hook ms (fun () ->
      t.completed <- t.completed + 1;
      check t;
      if audit then t.audit <- t.audit @ Invariants.audit ms);
  t

let layer t (on : Trace.target) =
  ground_truth t.registry
    ~usable:(Alloc.Jemalloc.usable_size (Instance.jemalloc t.ms))
    ~zeroing:(Instance.config t.ms).Minesweeper.Config.zeroing
    {
      on with
      Trace.alloc =
        (fun ~id ~site size ->
          t.allocs <- t.allocs + 1;
          on.alloc ~id ~site size);
      free =
        (fun ~id ~thread addr ->
          t.frees <- t.frees + 1;
          on.free ~id ~thread addr;
          if Instance.is_quarantined t.ms addr then
            Hashtbl.replace t.quarantined addr
              {
                id;
                eligible_from =
                  (t.completed
                  + if Instance.sweep_in_progress t.ms then 1 else 0);
                clean_sweeps = 0;
                reported = false;
              });
      after_op =
        (fun i ->
          on.after_op i;
          t.ops <- i + 1);
    }

let finish t ~trace_name =
  Instance.drain t.ms;
  {
    trace_name;
    ops = t.ops;
    allocs = t.allocs;
    frees = t.frees;
    releases =
      Option.get (Obs.Registry.read (Instance.registry t.ms) "ms.releases");
    sweeps = t.completed;
    soundness = List.rev t.soundness;
    precision = List.rev t.precision;
    audit = t.audit;
    unsound_ids = List.sort_uniq compare t.unsound_ids;
    retained_ids = List.sort_uniq compare t.retained_ids;
  }

let over ?latency_sweeps ?audit ~trace_name run =
  let oracle = ref None in
  run (fun stack on ->
      let t =
        attach ?latency_sweeps ?audit (Workloads.Harness.instance stack)
      in
      oracle := Some t;
      layer t on);
  match !oracle with
  | Some t -> finish t ~trace_name
  | None -> invalid_arg "Sweep_oracle.over: the run built no stack"

let run ?(config = Minesweeper.Config.default) ?latency_sweeps ?audit
    (trace : Trace.t) =
  over ?latency_sweeps ?audit ~trace_name:trace.Trace.name
    (Trace.replay_observed trace (Workloads.Harness.Mine_sweeper config))

let certify_static ~predicted_unsound ~predicted_retained (r : report) =
  let missing predicted ids = List.filter (fun id -> not (List.mem id predicted)) ids in
  let diag kind id =
    Diagnostic.make ~rule:"static-miss" ~severity:Diagnostic.Error
      (Printf.sprintf
         "dynamic %s finding for id %d was not predicted by the static \
          analyzer (static false negative)"
         kind id)
  in
  List.map (diag "oracle-unsound") (missing predicted_unsound r.unsound_ids)
  @ List.map (diag "oracle-retention") (missing predicted_retained r.retained_ids)
  |> Diagnostic.sort
