module Instance = Minesweeper.Instance
module Config = Minesweeper.Config
module Diagnostic = Sanitizer.Diagnostic
module Sweep_oracle = Sanitizer.Sweep_oracle
module Trace = Workloads.Trace
module Harness = Workloads.Harness

(* ------------------------------------------------------------------ *)
(* The mutator script: a fixed two-thread program with a deliberate
   dangling window (a is freed at op 7 while root 0 still points at it
   until op 10), so sweeps placed inside the window must requeue and
   sweeps placed after it may release. Each op is tagged with the
   mutator that issues it.                                             *)

let script =
  Trace.
    [|
      (0, Alloc { id = 0; size = 64; site = 0 }) (* a *);
      (0, Work 1_000);
      (0, Store_ptr { loc = Root 0; target = 0 });
      (1, Alloc { id = 1; size = 64; site = 0 }) (* b *);
      (1, Store_ptr { loc = Field (0, 0); target = 1 }) (* a.f := b *);
      (1, Work 1_000);
      (1, Store_ptr { loc = Root 1; target = 1 });
      (0, Free { id = 0; thread = 0 }) (* root 0 still dangles at a *);
      (0, Alloc { id = 2; size = 4096; site = 0 }) (* c *);
      (0, Work 1_000);
      (0, Zero (Root 0)) (* a now unreferenced *);
      (1, Zero (Root 1));
      (1, Free { id = 1; thread = 1 });
      (0, Store_ptr { loc = Root 2; target = 2 });
      (0, Work 1_000);
      (0, Zero (Root 2));
      (0, Free { id = 2; thread = 0 });
    |]

let is_work i = match snd script.(i) with Trace.Work _ -> true | _ -> false

(* Commutativity points: sweep boundaries are only placed after ops
   that touch the heap — placements between two pure-compute ops
   execute identically, so the DPOR-style reduction skips them. *)
let points =
  List.filter (fun i -> not (is_work i)) (List.init (Array.length script) Fun.id)

(* A schedule: where to start and where to finish each sweep, as
   (start_after_op, finish_after_op) pairs in op order. *)
type schedule = (int * int) list

let all_schedules () =
  let pts = Array.of_list points in
  let n = Array.length pts in
  let singles = ref [] in
  for a = n - 1 downto 0 do
    for b = n - 1 downto a + 1 do
      singles := [ (pts.(a), pts.(b)) ] :: !singles
    done
  done;
  let doubles = ref [] in
  for a = n - 1 downto 0 do
    for b = n - 1 downto a + 1 do
      for c = n - 1 downto b + 1 do
        for d = n - 1 downto c + 1 do
          doubles :=
            [ (pts.(a), pts.(b)); (pts.(c), pts.(d)) ] :: !doubles
        done
      done
    done
  done;
  !singles @ !doubles

type outcome = {
  index : int;
  boundaries : schedule;
  signature : string;
  swept_bytes : int;
  released : int;
  requeued : int;
  violations : Diagnostic.t list;
  unsound_ids : int list;
  races : Diagnostic.t list;
}

type report = {
  config_name : string;
  space : int;
  outcomes : outcome list;
  deterministic : bool;
  consistent : bool;
  registry : Obs.Registry.t;
  ring : Obs.Trace_ring.t;
}

let explorer_config base =
  (* Sweeps happen only where the schedule places them: suppress every
     auto trigger and never stall allocation. *)
  {
    base with
    Config.threshold = infinity;
    threshold_min_bytes = max_int;
    unmap_factor = infinity;
    pause_factor = infinity;
  }

let run_schedule config index (boundaries : schedule) =
  let stack = Harness.fresh (Harness.Mine_sweeper config) ~threads:2 in
  let ms = Harness.instance stack in
  let oracle = Sweep_oracle.attach ms in
  let s = Recorder.attach ms ~threads:2 in
  let on =
    Sweep_oracle.layer oracle (Trace.ticking stack (Trace.serve stack))
  in
  (* The schedule's layer on top runs the instance between ops: a [Work]
     op ticks it, then the boundaries placed after the op start or
     finish sweeps; the oracle judges each release on the instance's
     post-sweep hook. *)
  let exec =
    Trace.exec ~sites:1 stack.Harness.machine
      {
        on with
        after_op =
          (fun i ->
            if is_work i then Instance.tick ms;
            List.iter
              (fun (start_after, finish_after) ->
                if start_after = i then ignore (Instance.force_sweep ms);
                if finish_after = i then Instance.drain ms)
              boundaries;
            on.after_op i);
      }
  in
  Array.iter
    (fun (thread, op) ->
      Recorder.set_thread s thread;
      exec op)
    script;
  let verdict = Sweep_oracle.finish oracle ~trace_name:"explore" in
  Recorder.detach s;
  let evs = Recorder.events s in
  let races = Hb.analyze ~threads:2 evs in
  let count p = List.length (List.filter p evs) in
  let signature =
    String.concat ";"
      (List.map (fun (e : Event.t) -> Event.kind_signature e.Event.kind) evs)
  in
  {
    index;
    boundaries;
    signature;
    swept_bytes =
      Option.get (Obs.Registry.read (Instance.registry ms) "ms.swept_bytes");
    released =
      count (fun e ->
          match e.Event.kind with Event.Release _ -> true | _ -> false);
    requeued =
      count (fun e ->
          match e.Event.kind with Event.Requeue _ -> true | _ -> false);
    violations = verdict.Sweep_oracle.soundness @ verdict.Sweep_oracle.audit;
    unsound_ids = verdict.Sweep_oracle.unsound_ids;
    races;
  }

let render_boundaries (b : schedule) =
  String.concat ","
    (List.map (fun (s, f) -> Printf.sprintf "s%d/f%d" s f) b)

let render_outcome (o : outcome) =
  let buf = Buffer.create 128 in
  Buffer.add_string buf
    (Printf.sprintf "  #%03d %-18s released=%d requeued=%d swept=%d sig=%s\n"
       o.index
       (render_boundaries o.boundaries)
       o.released o.requeued o.swept_bytes
       (string_of_int (Hashtbl.hash o.signature)));
  let finding tag d =
    Buffer.add_string buf
      (Printf.sprintf "    %s %s\n" tag (Diagnostic.to_string d))
  in
  List.iter (finding "VIOLATION") o.violations;
  List.iter (finding "RACE") o.races;
  Buffer.contents buf

let run ?(config = Config.mostly_concurrent) ?(config_name = "?") ~schedules ()
    =
  let config = explorer_config config in
  let all = Array.of_list (all_schedules ()) in
  let space = Array.length all in
  let picked =
    if schedules >= space then Array.to_list all
    else
      (* Deterministic stride sample across the lexicographic space. *)
      List.sort_uniq compare
        (List.init schedules (fun j -> j * space / schedules))
      |> List.map (fun i -> all.(i))
  in
  let deterministic = ref true in
  let outcomes =
    List.mapi
      (fun index sched ->
        let o1 = run_schedule config index sched in
        let o2 = run_schedule config index sched in
        if render_outcome o1 <> render_outcome o2 then deterministic := false;
        o1)
      picked
  in
  (* Equivalence: schedules with the same executed synchronization
     history must account the same work. *)
  let classes = Hashtbl.create 64 in
  let consistent = ref true in
  List.iter
    (fun o ->
      match Hashtbl.find_opt classes o.signature with
      | None -> Hashtbl.replace classes o.signature o
      | Some first ->
        if
          first.swept_bytes <> o.swept_bytes
          || first.released <> o.released
          || first.requeued <> o.requeued
        then consistent := false)
    outcomes;
  let registry = Obs.Registry.create () in
  let count name v =
    Obs.Registry.Counter.incr (Obs.Registry.counter registry name) v
  in
  let gauge name v = Obs.Registry.Gauge.set (Obs.Registry.gauge registry name) v in
  let total f = List.fold_left (fun acc o -> acc + f o) 0 outcomes in
  count "rc.schedule_space" space;
  count "rc.schedules_explored" (List.length outcomes);
  count "rc.violations" (total (fun o -> List.length o.violations));
  count "rc.races" (total (fun o -> List.length o.races));
  count "rc.released" (total (fun o -> o.released));
  count "rc.requeued" (total (fun o -> o.requeued));
  count "rc.swept_bytes" (total (fun o -> o.swept_bytes));
  gauge "rc.signature_classes" (Hashtbl.length classes);
  gauge "rc.deterministic" (if !deterministic then 1 else 0);
  gauge "rc.consistent" (if !consistent then 1 else 0);
  let ring = Obs.Trace_ring.create ~capacity:1024 () in
  List.iter
    (fun o ->
      let p = Obs.Trace_ring.enter ~now:o.index Obs.Trace_ring.Race "schedule" in
      Obs.Trace_ring.exit ring p ~now:o.index ~bytes:o.swept_bytes
        ~attrs:
          [
            ("schedule", o.index);
            ("violations", List.length o.violations);
            ("races", List.length o.races);
          ]
        ())
    outcomes;
  {
    config_name;
    space;
    outcomes;
    deterministic = !deterministic;
    consistent = !consistent;
    registry;
    ring;
  }

let violations r = List.concat_map (fun o -> o.violations) r.outcomes
let races r = List.concat_map (fun o -> o.races) r.outcomes

let render r =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "racecheck explore: config=%s space=%d explored=%d\n"
       r.config_name r.space (List.length r.outcomes));
  List.iter (fun o -> Buffer.add_string buf (render_outcome o)) r.outcomes;
  Buffer.add_string buf
    (Printf.sprintf
       "summary: violations=%d races=%d classes=%d deterministic=%b \
        consistent=%b\n"
       (List.length (violations r))
       (List.length (races r))
       (List.length
          (List.sort_uniq compare (List.map (fun o -> o.signature) r.outcomes)))
       r.deterministic r.consistent);
  Buffer.contents buf
