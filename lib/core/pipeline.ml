type stage =
  | Mark
  | Merge
  | Release
  | Purge

let stage_name = function
  | Mark -> "mark"
  | Merge -> "merge"
  | Release -> "release"
  | Purge -> "purge"

type plan = {
  mode : Config.sweep_mode;
  domains : int;
  helpers : int;
  stop_the_world : bool;
  stages : stage list;
}

(* The single place a plan is constructed from configuration: the
   sweep knobs pick mode and domain count; the feature toggles pick
   which stages exist at all (a non-sweeping partial version has no
   Mark/Merge, a non-purging one no Purge). *)
let plan_of_config (config : Config.t) =
  let helpers, stop_the_world =
    match config.Config.concurrency with
    | Config.Sequential -> (0, false)
    | Config.Concurrent { helpers; stop_the_world } -> (helpers, stop_the_world)
  in
  let stages =
    (if config.Config.sweeping then [ Mark; Merge ] else [])
    @ [ Release ]
    @ (if config.Config.purging then [ Purge ] else [])
  in
  {
    mode = config.Config.sweep_mode;
    domains = config.Config.domains;
    helpers;
    stop_the_world;
    stages;
  }

let mark_only plan = { plan with stages = [ Mark; Merge ] }

type stage_report = {
  stage : stage;
  cycles : int;
  items : int;
  bytes : int;
}

type outcome = {
  sweep : int;
  plan : plan;
  scanned_bytes : int;
  replayed_words : int;
  entries : int;
  released : int;
  requeued : int;
  flush_batches : int;
  reports : stage_report list;
  sequential_cycles : int;
  pipelined_cycles : int;
}

(* Both totals are pure projections over the stage reports: the
   sequential total is the plain sum of the single-threaded stage costs;
   the pipelined total substitutes the parallel mark estimate and runs
   the batched-overlap recurrence. Neither ever feeds the simulated
   clock — actual charging is domain-independent. *)
let modeled_cycles plan ~batches ~mark_pipelined reports =
  let sequential = List.fold_left (fun acc r -> acc + r.cycles) 0 reports in
  let stage_cycles =
    Array.of_list
      (List.map
         (fun r -> if r.stage = Mark then mark_pipelined else r.cycles)
         reports)
  in
  let pipelined =
    Parsweep.pipeline_cycles ~domains:plan.domains ~batches stage_cycles
  in
  (sequential, min sequential pipelined)
