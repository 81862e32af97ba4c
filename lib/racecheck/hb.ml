module Diagnostic = Sanitizer.Diagnostic

let rules =
  [
    ( "rc-mark-hidden-write",
      "mutator write publishing a pointer to a locked-in entry during the \
       sweep window, concurrent with the background mark and not ordered by \
       a stop-the-world fence" );
    ( "rc-early-release",
      "entry released before the marking that proves it unreachable \
       happened-before the release" );
    ( "rc-lost-entry",
      "locked-in entry neither released nor requeued by sweep completion — \
       it silently leaks out of the protocol" );
    ( "rc-reuse-quarantined",
      "allocator served an address that is still quarantined: the free \
       interposition was bypassed" );
    ( "rc-stage-order",
      "sweep-pipeline stage boundary out of canonical order: a stage \
       entered while another was still open, re-opened after a later stage \
       completed, or exited without a matching enter" );
  ]

(* Canonical pipeline stage order, kept local so the checker does not
   depend on the core library's types. *)
let stage_order = function
  | "mark" -> 0
  | "merge" -> 1
  | "release" -> 2
  | "purge" -> 3
  | _ -> -1

(* An event together with the clock it executed at. *)
type stamped = {
  seq : int;
  clock : Vclock.t;
}

(* Per-sweep window state, opened at [Lock_in], closed (and judged) at
   [Sweep_done]. *)
type window = {
  sweep : int;
  locked : (int * int) array;  (** sorted by address *)
  lock_seq : int;
  mutable mark_done : stamped option;
  mutable fences : stamped list;
  mark_reads : (int, stamped) Hashtbl.t;  (** page base -> last mark read *)
  outcomes : (int, unit) Hashtbl.t;  (** addr released or requeued *)
  mutable hidden : (Event.t * stamped * int * int) list;
      (** window writes whose value points into a locked entry:
          (event, stamp, entry base, entry usable) — judged at close *)
}

(* Greatest locked entry with base <= value, if value falls inside it. *)
let containing locked value =
  let n = Array.length locked in
  let rec go lo hi best =
    if lo > hi then best
    else
      let mid = (lo + hi) / 2 in
      let base, _ = locked.(mid) in
      if base <= value then go (mid + 1) hi (Some mid) else go lo (mid - 1) best
  in
  match go 0 (n - 1) None with
  | None -> None
  | Some i ->
    let base, usable = locked.(i) in
    if value >= base && value < base + usable then Some (base, usable) else None

let page_of addr = addr / Vmem.page_size * Vmem.page_size

let analyze ~threads (events : Event.t list) =
  let n = Event.tid_count ~threads in
  let clocks = Array.init n (fun _ -> Vclock.create n) in
  let diags = ref [] in
  let report ~rule ~op_index msg =
    diags :=
      Diagnostic.make ~rule ~severity:Diagnostic.Error ~op_index msg :: !diags
  in
  (* Ground truth for the reuse rule: pushed and not yet released. *)
  let quarantined : (int, unit) Hashtbl.t = Hashtbl.create 256 in
  (* Stage-boundary protocol state, per sweep: the currently open stage
     and the highest stage index already exited. *)
  let stage_cur : (int, string) Hashtbl.t = Hashtbl.create 8 in
  let stage_max : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let window = ref None in
  let close_window (w : window) done_seq =
    (* Hidden writes survive if the mark read of their page saw them
       (write happened-before the read) or a fence ordered them before
       the release decision; otherwise the release raced the write. *)
    List.iter
      (fun ((e : Event.t), (st : stamped), base, usable) ->
        let seen_by_mark =
          match e.kind with
          | Event.Write { addr; _ } -> (
            match Hashtbl.find_opt w.mark_reads (page_of addr) with
            | Some mr -> Vclock.leq st.clock mr.clock
            | None -> false)
          | _ -> false
        in
        let fenced =
          List.exists (fun (f : stamped) -> Vclock.leq st.clock f.clock) w.fences
        in
        if not (seen_by_mark || fenced) then
          let mark_info =
            match e.kind with
            | Event.Write { addr; _ } -> (
              match Hashtbl.find_opt w.mark_reads (page_of addr) with
              | Some mr ->
                Printf.sprintf
                  "; page %#x was marked at event #%d clock %s — concurrent \
                   with the write"
                  (page_of addr) mr.seq (Vclock.to_string mr.clock)
              | None ->
                Printf.sprintf "; page %#x was never marked this sweep"
                  (page_of addr))
            | _ -> ""
          in
          report ~rule:"rc-mark-hidden-write" ~op_index:st.seq
            (Printf.sprintf
               "sweep %d: %s %s (event #%d, clock %s) hides a pointer into \
                locked-in entry %#x+%d from the mark, and no stop-the-world \
                fence orders it before the release decision%s"
               w.sweep
               (Event.tid_to_string e.tid)
               (Event.kind_to_string e.kind) st.seq (Vclock.to_string st.clock)
               base usable mark_info))
      (List.rev w.hidden);
    Array.iter
      (fun (addr, usable) ->
        if not (Hashtbl.mem w.outcomes addr) then
          report ~rule:"rc-lost-entry" ~op_index:done_seq
            (Printf.sprintf
               "sweep %d: locked-in entry %#x+%d neither released nor \
                requeued by sweep completion (event #%d)"
               w.sweep addr usable done_seq))
      w.locked
  in
  List.iter
    (fun (e : Event.t) ->
      let i = Event.tid_index ~threads e.tid in
      Vclock.tick clocks.(i) i;
      (* Synchronization edges. *)
      (match e.kind with
      | Event.Lock_in _ ->
        (* Acquire: the sweeper sees everything every mutator did. *)
        for m = 0 to threads - 1 do
          Vclock.join clocks.(i) clocks.(m)
        done
      | Event.Fence _ ->
        (* Full barrier: the stop-the-world window sees everything, and
           everyone resumes after it. *)
        for j = 0 to n - 1 do
          if j <> i then Vclock.join clocks.(i) clocks.(j)
        done;
        for j = 0 to n - 1 do
          if j <> i then Vclock.join clocks.(j) clocks.(i)
        done
      | Event.Sweep_done _ ->
        (* Release: mutators resume knowing the sweep completed. *)
        for m = 0 to threads - 1 do
          Vclock.join clocks.(m) clocks.(i)
        done
      | _ -> ());
      let st = { seq = e.seq; clock = Vclock.copy clocks.(i) } in
      match e.kind with
      | Event.Push { addr; _ } -> Hashtbl.replace quarantined addr ()
      | Event.Serve { addr; usable } ->
        if Hashtbl.mem quarantined addr then
          report ~rule:"rc-reuse-quarantined" ~op_index:st.seq
            (Printf.sprintf
               "allocator served %#x+%d (event #%d, clock %s) while the \
                address is still quarantined"
               addr usable st.seq (Vclock.to_string st.clock))
      | Event.Lock_in { sweep; entries } ->
        let locked = Array.of_list entries in
        Array.sort compare locked;
        window :=
          Some
            {
              sweep;
              locked;
              lock_seq = st.seq;
              mark_done = None;
              fences = [];
              mark_reads = Hashtbl.create 64;
              outcomes = Hashtbl.create 16;
              hidden = [];
            }
      | Event.Mark_read { base; _ } -> (
        match !window with
        | Some w -> Hashtbl.replace w.mark_reads base st
        | None -> ())
      | Event.Mark_done _ -> (
        match !window with
        | Some w -> w.mark_done <- Some st
        | None -> ())
      | Event.Write { value; _ } -> (
        match !window with
        | Some w -> (
          match containing w.locked value with
          | Some (base, usable) -> w.hidden <- (e, st, base, usable) :: w.hidden
          | None -> ())
        | None -> ())
      | Event.Fence _ -> (
        match !window with
        | Some w -> w.fences <- st :: w.fences
        | None -> ())
      | Event.Rescan_read _ -> ()
      | Event.Requeue { addr; _ } -> (
        match !window with
        | Some w -> Hashtbl.replace w.outcomes addr ()
        | None -> ())
      | Event.Release { sweep; addr } -> (
        Hashtbl.remove quarantined addr;
        match !window with
        | None ->
          report ~rule:"rc-early-release" ~op_index:st.seq
            (Printf.sprintf
               "sweep %d: entry %#x released at event #%d (clock %s) outside \
                any sweep window"
               sweep addr st.seq (Vclock.to_string st.clock))
        | Some w -> (
          Hashtbl.replace w.outcomes addr ();
          match w.mark_done with
          | Some md when Vclock.leq md.clock st.clock -> ()
          | Some md ->
            report ~rule:"rc-early-release" ~op_index:st.seq
              (Printf.sprintf
                 "sweep %d: entry %#x released at event #%d (clock %s) not \
                  ordered after mark completion (event #%d, clock %s)"
                 w.sweep addr st.seq (Vclock.to_string st.clock) md.seq
                 (Vclock.to_string md.clock))
          | None ->
            report ~rule:"rc-early-release" ~op_index:st.seq
              (Printf.sprintf
                 "sweep %d: entry %#x released at event #%d (clock %s) before \
                  marking completed — its unreachability proof does not exist \
                  yet"
                 w.sweep addr st.seq (Vclock.to_string st.clock))))
      | Event.Sweep_done _ -> (
        match !window with
        | Some w ->
          close_window w st.seq;
          window := None
        | None -> ())
      | Event.Stage { sweep; stage; enter } ->
        let idx = stage_order stage in
        let max_done =
          Option.value ~default:(-1) (Hashtbl.find_opt stage_max sweep)
        in
        if idx < 0 then
          report ~rule:"rc-stage-order" ~op_index:st.seq
            (Printf.sprintf "sweep %d: unknown pipeline stage %S (event #%d)"
               sweep stage st.seq)
        else if enter then begin
          (match Hashtbl.find_opt stage_cur sweep with
          | Some open_stage ->
            report ~rule:"rc-stage-order" ~op_index:st.seq
              (Printf.sprintf
                 "sweep %d: stage %s entered (event #%d, clock %s) while \
                  stage %s is still open"
                 sweep stage st.seq (Vclock.to_string st.clock) open_stage)
          | None -> ());
          if idx < max_done then
            report ~rule:"rc-stage-order" ~op_index:st.seq
              (Printf.sprintf
                 "sweep %d: stage %s entered (event #%d, clock %s) after a \
                  later stage already completed — the pipeline ran backwards"
                 sweep stage st.seq (Vclock.to_string st.clock));
          Hashtbl.replace stage_cur sweep stage
        end
        else begin
          (match Hashtbl.find_opt stage_cur sweep with
          | Some open_stage when open_stage = stage ->
            Hashtbl.remove stage_cur sweep
          | Some open_stage ->
            report ~rule:"rc-stage-order" ~op_index:st.seq
              (Printf.sprintf
                 "sweep %d: stage %s exited (event #%d) while stage %s is \
                  the open one"
                 sweep stage st.seq open_stage)
          | None ->
            report ~rule:"rc-stage-order" ~op_index:st.seq
              (Printf.sprintf
                 "sweep %d: stage %s exited (event #%d) without a matching \
                  enter"
                 sweep stage st.seq));
          Hashtbl.replace stage_max sweep (max max_done idx)
        end
      | Event.Flush _ -> ())
    events;
  (* A run truncated mid-sweep is not judged for lost entries: the
     outcome events simply have not happened yet. *)
  List.rev !diags
