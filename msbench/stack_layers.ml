(* Per-layer values read from the simulated stacks' metrics registries,
   shared by the workloads that run MineSweeper (spec2006, serve,
   fleet). *)

(* The instance counters behind the [core.*] metrics. *)
let core_counters =
  [ "ms.sweeps"; "ms.swept_bytes"; "ms.failed_frees"; "ms.releases";
    "ms.stw_rescanned_bytes"; "ms.alloc_pause_cycles" ]

(* Integer totals by name, summed over a cycle's units. *)
type tally = (string, int) Hashtbl.t

let tally () : tally = Hashtbl.create 16
let add t name v = Hashtbl.replace t name (v + Option.value ~default:0 (Hashtbl.find_opt t name))
let get t name = float_of_int (Option.value ~default:0 (Hashtbl.find_opt t name))

(* Add every name of [names] as [read] reports it (0 when absent). *)
let add_all t names read =
  List.iter (fun name -> add t name (Option.value ~default:0 (read name))) names

let core t =
  let releases = get t "ms.releases" and failed = get t "ms.failed_frees" in
  [
    ("core.sweeps", get t "ms.sweeps");
    ("core.swept_mib", get t "ms.swept_bytes" /. 1048576.);
    ("core.failed_frees", failed);
    ("core.release_ratio", releases /. (releases +. failed));
    ("core.stw_rescanned_mib", get t "ms.stw_rescanned_bytes" /. 1048576.);
    ("core.alloc_pause_cycles", get t "ms.alloc_pause_cycles");
  ]

(* Tail latency from histograms pooled (bucket-wise) over a cycle's
   registries, with the sample count it rests on. *)
let latency pooled ~latency ~stall =
  let hist name =
    match Obs.Registry.find pooled name with
    | Some (Obs.Registry.Histogram h) -> Some h
    | _ -> None
  in
  let p99 name =
    match hist name with Some h -> Obs.Registry.Histogram.quantile h 0.99 | None -> nan
  in
  [
    ("sim.p99_latency_cycles", p99 latency);
    ("sim.p99_stall_cycles", p99 stall);
    ( "sim.latency_samples",
      match hist latency with
      | Some h -> float_of_int (Obs.Registry.Histogram.count h)
      | None -> 0. );
  ]
