(* The measuring loop shared by the four workloads.

   A workload has [keys] distinct inputs, all derived from the seed. The
   loop visits them in order, cycle after cycle, until the run has
   lasted [seconds] and every input ran at least once, plus one re-run
   of input 0 (so every run checks that a re-run reproduces the
   simulation exactly). Set-up is timed apart from the measured work of
   a unit. *)

type sample = {
  key : int;
  ops : int;  (** operations the unit completed *)
  failed : int;  (** operations it attempted but could not complete *)
  setup : float;  (** wall seconds building the unit's systems *)
  wall : float;  (** wall seconds of the measured work *)
  cpu : float;  (** process CPU seconds (all domains) of the same *)
  digest : string;  (** digest of the simulated outcome *)
}

type workload = {
  keys : int;
  run_unit : key:int -> sample;  (** one unit of work *)
  layers : unit -> (string * float) list;
      (** per-layer values from the first visit of every input *)
  checks : unit -> (string * bool) list;  (** untimed correctness checks *)
}

(* Time [f] on the wall and CPU clocks. *)
let timed f =
  let w0 = Span.wall () and c0 = Span.cpu () in
  let v = f () in
  (v, Span.wall () -. w0, Span.cpu () -. c0)

let digest_of_strings parts = Digest.to_hex (Digest.string (String.concat "\n" parts))

(* -- host speed ------------------------------------------------------

   On a shared host the same work can take twice as long for tens of
   seconds at a time, on the wall and the CPU clock alike, as
   neighbours load the machine. A fixed reference kernel runs between
   units at least once a second. A unit's host times are divided by the
   speed factor of the kernels bracketing it: their mean time over
   [nominal_kernel_s]. Run records keep the raw times and the factor.

   The kernel has two parts, each a kind of work the simulator does
   and neighbours slow: short-lived OCaml allocation, which streams
   through the 2 MiB minor heap, and random read-modify-writes over a
   16 MiB table, which lives in the L3 cache the host shares. On a
   2-core host, with the kernel timed before every unit and each kind
   of reference timed apart, four or five processes of 40 s per
   workload gave these ranges of the per-process throughput: with both
   parts 4.1-4.8 %, with the allocation part alone 5.5-7.6 %, with a
   1 MiB L2-resident table and the 16 MiB one 6.5-16 %, uncorrected
   10-24 %. In five later sets of ten processes of serve or fleet,
   while the uncorrected throughput spread 22-45 % (quartile range over
   median), the corrected one spread 4-12 %. Within a run, a unit's log
   time rises with the kernel's at a slope of 0.95-1.03 on spec2006,
   serve and fleet (0.73 on trace-tools). Across runs the workloads
   slow a little more than the kernel under heavy load, and the
   correction leaves part of that in.

   The kernel must not depend on what the workload just did, or a
   change that makes the simulator allocate or retain more would slow
   the kernel too and have part of its own slowdown divided away. So a
   full major collection precedes it, its table lives off the OCaml
   heap, an untimed pass loads the table into the caches whatever the
   workload evicted, and its allocations die young: each minor
   collection promotes at most a list or two of 64 pairs, so the major
   heap the workload left behind is never traversed.

   [nominal_kernel_s] is about the least time the kernel took in 300
   runs during a busy spell on the 2-core development host (median
   97 ms). Quieter spells bring the factor below 1. *)

let nominal_kernel_s = 0.07
let kernel_every_s = 1.0

type table = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

(* Filled at start-up, so the table is part of the resident baseline a
   run's memory is measured against. *)
let table words : table =
  let t = Bigarray.Array1.create Bigarray.int Bigarray.c_layout words in
  Bigarray.Array1.fill t 0;
  t

let shared_table = table (1 lsl 21)

let load (t : table) =
  for i = 0 to Bigarray.Array1.dim t - 1 do
    t.{i} <- t.{i} + 1
  done

let scramble (t : table) steps =
  let mask = Bigarray.Array1.dim t - 1 in
  let x = ref 12345 in
  for i = 1 to steps do
    x := ((!x * 1103515245) + 12345) land 0x3fff_ffff;
    (* The low bits of this generator have short periods. *)
    let j = (!x lsr 8) land mask in
    t.{j} <- t.{j} + i
  done

(* Build, reverse and fold a 64-element list, [rounds] times. *)
let churn rounds =
  let sum = ref 0 in
  for r = 1 to rounds do
    let l = List.init 64 (fun i -> (i + r, float_of_int i)) in
    sum := !sum + List.fold_left (fun a (i, _) -> a + i) 0 (List.rev l)
  done;
  !sum

let kernel () =
  Gc.full_major ();
  load shared_table;
  let t0 = Span.wall () in
  ignore (Sys.opaque_identity (churn 60_000));
  scramble shared_table 1_500_000;
  Span.wall () -. t0

(* -- resident memory ------------------------------------------------- *)

(* VmHWM: the process's resident high-water mark. A run reports its
   rise over a reading taken before any workload code ran, so the
   runtime and the kernel's tables do not dilute the simulator's share,
   and reads it after the first cycle of inputs. The OCaml 5.1 heap does
   not shrink, so later cycles can only raise it, by an amount that
   depends on how many units the host's speed let the window hold: read
   at the end of the run, it moved by several MiB between two runs of
   the same seed. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec go () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
          float_of_int kb /. 1024.)
    | _ -> go ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) go

(* -- the loop -------------------------------------------------------- *)

type measured = {
  sample : sample;
  traced : bool;
  speed : float;  (** kernel time around the unit over [nominal_kernel_s] *)
}

let k_unit = Span.key "unit"

(* In a traced run, even-numbered visits of an input are traced and odd
   ones are not, so the same inputs measure the tracing overhead. Only
   the first cycle feeds the span aggregates. Each unit starts after a
   full major collection. Returns the units, the elapsed wall time and
   the VmHWM after the first cycle. *)
let measure ~seconds ~traced w =
  let t0 = Span.wall () in
  let first_cycle_rss = ref nan in
  (* [pending]: units run since the last kernel, waiting for the next. *)
  let rec go i ~before ~since pending acc =
    let key = i mod w.keys and visit = i / w.keys in
    let traced_unit = traced && visit mod 2 = 0 in
    Span.configure ~enabled:traced_unit ~recording:(visit = 0);
    Gc.full_major ();
    let sample = Span.with_ ~req:key k_unit (fun () -> w.run_unit ~key) in
    Span.configure ~enabled:false ~recording:false;
    if i = w.keys - 1 then first_cycle_rss := peak_rss_mb ();
    let pending = (sample, traced_unit) :: pending in
    let more = i < w.keys || Span.wall () -. t0 < seconds in
    if more && Span.wall () -. since < kernel_every_s then go (i + 1) ~before ~since pending acc
    else begin
      let after = kernel () in
      let speed = (before +. after) /. 2. /. nominal_kernel_s in
      let acc =
        List.fold_right
          (fun (sample, traced) acc -> { sample; traced; speed } :: acc)
          pending acc
      in
      if more then go (i + 1) ~before:after ~since:(Span.wall ()) [] acc else acc
    end
  in
  let units = go 0 ~before:(kernel ()) ~since:(Span.wall ()) [] [] in
  (List.rev units, Span.wall () -. t0, !first_cycle_rss)

let by_key units =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun m ->
      let k = m.sample.key in
      Hashtbl.replace tbl k (m :: Option.value ~default:[] (Hashtbl.find_opt tbl k)))
    units;
  Hashtbl.fold (fun k ms acc -> (k, List.rev ms) :: acc) tbl [] |> List.sort compare

(* Throughput over one cycle of inputs, each input's time its median
   over visits: where the time window cuts the last cycle does not
   change the input mix. *)
let rate units ~time =
  let groups = by_key units in
  let ops = List.fold_left (fun a (_, ms) -> a + (List.hd ms).sample.ops) 0 groups in
  let t = List.fold_left (fun a (_, ms) -> a +. Quant.median (List.map time ms)) 0. groups in
  (float_of_int ops, t)

let corrected f m = f m.sample /. m.speed

(* One input's time is its median over visits; this is the median of
   those over the inputs. spec2006 visits most inputs once in a run,
   and its set-up lasts about 100 us, so one slow set-up swings a mean:
   over 30 runs the quartile spread was 24 %
   with the mean and 9.5 % with the median. *)
let median_over_inputs units ~time =
  Quant.median (List.map (fun (_, ms) -> Quant.median (List.map time ms)) (by_key units))

let untraced units = List.filter (fun m -> not m.traced) units

let end_to_end units ~rss_rise_mb =
  let u = untraced units in
  let ops, wall = rate u ~time:(corrected (fun s -> s.wall)) in
  let _, cpu = rate u ~time:(corrected (fun s -> s.cpu)) in
  [
    ("ops_per_s", ops /. wall);
    ("host_cpu_us_per_op", cpu /. ops *. 1e6);
    ("host_peak_rss_mb", rss_rise_mb);
    ("setup_s", median_over_inputs units ~time:(corrected (fun s -> s.setup)));
  ]

(* Per-layer values every workload shares: host time of the first
   cycle, the host speed factor, tracing overhead on inputs measured
   both ways, and the share of traced unit time no layer span covers. *)
let common_layers units ~keys =
  let first = List.filteri (fun i _ -> i < keys) units in
  let sum f = List.fold_left (fun a m -> a +. f m.sample) 0. first in
  let traced = List.filter (fun m -> m.traced) units and untraced = untraced units in
  let has ms m = List.exists (fun o -> o.sample.key = m.sample.key) ms in
  let overhead =
    match (List.filter (has untraced) traced, List.filter (has traced) untraced) with
    | [], _ | _, [] -> nan
    | t, u ->
      let time = corrected (fun s -> s.wall) in
      let ops_t, t_t = rate t ~time and ops_u, t_u = rate u ~time in
      ((ops_u /. t_u) /. (ops_t /. t_t) -. 1.) *. 100.
  in
  [
    ("host_wall_s", sum (fun s -> s.wall));
    ("host_cpu_s", sum (fun s -> s.cpu));
    ("host.speed_factor", Quant.median (List.map (fun m -> m.speed) units));
    ("trace_overhead_pct", overhead);
    ("spans.unattributed_pct", k_unit.Span.self /. k_unit.Span.total *. 100.);
  ]

(* Every visit of an input must reproduce its first visit's simulated
   outcome, traced or not. *)
let reruns_match units =
  List.for_all
    (fun (_, ms) -> List.for_all (fun m -> m.sample.digest = (List.hd ms).sample.digest) ms)
    (by_key units)

let attempted units = List.fold_left (fun a m -> a + m.sample.ops + m.sample.failed) 0 units
let failed units = List.fold_left (fun a m -> a + m.sample.failed) 0 units
