(* Open-loop arrival processes for the server workload family.

   An arrival process produces a strictly increasing sequence of absolute
   cycle timestamps at which requests enter the system. The sequence is a
   pure function of (process, seed): it never observes the service side,
   which is what makes the load OPEN-loop — when the allocator stalls, the
   generator keeps firing and queueing delay accumulates instead of being
   absorbed by a slowed-down client.

   Rates are expressed in arrivals per million cycles (aMc). At the cost
   model's scale one million cycles is roughly a third of a millisecond,
   so aMc numbers read like requests-per-millisecond-ish figures.

   Degenerate parameters follow the same clamp-don't-raise policy as
   [Dist]: a non-positive rate simply generates no arrivals. *)

type process =
  | Poisson of { rate : float }
  | Mmpp of { rate_lo : float; rate_hi : float; dwell_lo : int; dwell_hi : int }
  | Diurnal of { rate : float; period : int; depth : float }
  | Spike of { rate : float; spike_at : int; spike_len : int; spike_mult : float }

type mmpp_phase = Lo | Hi

type t = {
  process : process;
  rng : Rng.t;
  mutable cursor : int; (* last generated timestamp (or start) *)
  (* MMPP modulation state *)
  mutable phase : mmpp_phase;
  mutable phase_end : int;
}

let clean_rate r = if Float.is_finite r && r > 0. then r else 0.

let normalise = function
  | Poisson { rate } -> Poisson { rate = clean_rate rate }
  | Mmpp { rate_lo; rate_hi; dwell_lo; dwell_hi } ->
    Mmpp
      {
        rate_lo = clean_rate rate_lo;
        rate_hi = clean_rate rate_hi;
        dwell_lo = max 1 dwell_lo;
        dwell_hi = max 1 dwell_hi;
      }
  | Diurnal { rate; period; depth } ->
    let depth = if Float.is_finite depth then Float.min 1. (Float.max 0. depth) else 0. in
    Diurnal { rate = clean_rate rate; period = max 1 period; depth }
  | Spike { rate; spike_at; spike_len; spike_mult } ->
    let spike_mult =
      if Float.is_finite spike_mult && spike_mult > 0. then spike_mult else 0.
    in
    Spike { rate = clean_rate rate; spike_at = max 0 spike_at;
            spike_len = max 0 spike_len; spike_mult }

let make process rng =
  let process = normalise process in
  let phase_end =
    match process with Mmpp { dwell_lo; _ } -> dwell_lo | _ -> 0
  in
  { process; rng; cursor = 0; phase = Lo; phase_end }

(* One exponential inter-arrival gap at [rate] aMc, floored at 1 cycle so
   timestamps are strictly increasing. Returns None when the rate is 0.
   u in (0, 1] as in [Dist.sample]; the 1e15-cycle ceiling keeps the
   float->int conversion defined even for absurdly small rates. *)
let exp_gap rng ~rate =
  if rate <= 0. then None
  else begin
    let u = 1.0 -. Rng.float rng 1.0 in
    let gap = -.log u *. 1_000_000.0 /. rate in
    let gap = if Float.is_finite gap then Float.min gap 1e15 else 1e15 in
    Some (max 1 (int_of_float gap))
  end

let mean_rate = function
  | Poisson { rate } -> rate
  | Mmpp { rate_lo; rate_hi; dwell_lo; dwell_hi } ->
    let dl = float_of_int dwell_lo and dh = float_of_int dwell_hi in
    ((rate_lo *. dl) +. (rate_hi *. dh)) /. (dl +. dh)
  | Diurnal { rate; _ } -> rate (* sinusoid integrates to zero over a period *)
  | Spike { rate; _ } -> rate (* dominated by the infinite off-spike segment *)

let peak_rate = function
  | Poisson { rate } -> rate
  | Mmpp { rate_lo; rate_hi; _ } -> Float.max rate_lo rate_hi
  | Diurnal { rate; depth; _ } -> rate *. (1. +. depth)
  | Spike { rate; spike_mult; _ } -> Float.max rate (rate *. spike_mult)

let describe = function
  | Poisson { rate } -> Printf.sprintf "poisson(%.1f aMc)" rate
  | Mmpp { rate_lo; rate_hi; dwell_lo; dwell_hi } ->
    Printf.sprintf "mmpp(%.1f/%.1f aMc, dwell %d/%d)" rate_lo rate_hi dwell_lo
      dwell_hi
  | Diurnal { rate; period; depth } ->
    Printf.sprintf "diurnal(%.1f aMc, period %d, depth %.2f)" rate period depth
  | Spike { rate; spike_at; spike_len; spike_mult } ->
    Printf.sprintf "spike(%.1f aMc, x%.1f @ %d for %d)" rate spike_mult
      spike_at spike_len

(* MMPP: exponential gaps at the current phase rate; a draw that crosses
   the phase boundary is discarded and redrawn from the boundary — valid
   because the exponential is memoryless. A zero-rate phase just fast
   forwards to its end. A phase can hold an arrival only if it lasts at
   least 2 cycles: the cursor enters it at its start and every gap is at
   least 1, so in a 1-cycle phase each draw lands on the boundary and is
   discarded. *)
let next_mmpp t ~rate_lo ~rate_hi ~dwell_lo ~dwell_hi =
  let holds rate dwell = rate > 0. && dwell >= 2 in
  if not (holds rate_lo dwell_lo || holds rate_hi dwell_hi) then None
  else begin
    let result = ref None in
    while !result = None do
      let rate = match t.phase with Lo -> rate_lo | Hi -> rate_hi in
      (* The caller parks the cursor on the boundary before switching, so
         the new phase starts exactly where the old one ended. *)
      let switch () =
        match t.phase with
        | Lo ->
          t.phase <- Hi;
          t.phase_end <- t.phase_end + dwell_hi
        | Hi ->
          t.phase <- Lo;
          t.phase_end <- t.phase_end + dwell_lo
      in
      match exp_gap t.rng ~rate with
      | None ->
        (* Silent phase: fast-forward to the phase boundary. *)
        t.cursor <- t.phase_end;
        switch ()
      | Some gap ->
        let candidate = t.cursor + gap in
        if candidate >= t.phase_end then begin
          t.cursor <- t.phase_end;
          switch ()
        end
        else begin
          t.cursor <- candidate;
          result := Some candidate
        end
    done;
    !result
  end

(* Diurnal: Lewis-Shedler thinning against the peak rate. Candidate points
   arrive at rate_max; each is accepted with probability
   rate(t)/rate_max where rate(t) = rate * (1 + depth * sin(2 pi t / period)).
   Every candidate advances the cursor by >= 1 cycle, so the loop always
   terminates and accepted timestamps are strictly increasing. *)
let next_diurnal t ~rate ~period ~depth =
  if rate <= 0. then None
  else begin
    let rate_max = rate *. (1. +. depth) in
    let result = ref None in
    while !result = None do
      match exp_gap t.rng ~rate:rate_max with
      | None -> result := Some (-1) (* unreachable: rate_max > 0 *)
      | Some gap ->
        let candidate = t.cursor + gap in
        t.cursor <- candidate;
        let phase =
          2.0 *. Float.pi *. float_of_int candidate /. float_of_int period
        in
        let inst = rate *. (1. +. (depth *. sin phase)) in
        if Rng.float t.rng 1.0 < inst /. rate_max then result := Some candidate
    done;
    match !result with Some x when x >= 0 -> Some x | _ -> None
  end

(* Spike: piecewise-constant rate — [rate] outside the spike window,
   [rate * spike_mult] inside. Draws that cross a segment boundary restart
   from the boundary (memoryless). *)
let next_spike t ~rate ~spike_at ~spike_len ~spike_mult =
  let spike_end = spike_at + spike_len in
  let rate_in = rate *. spike_mult in
  if rate <= 0. && rate_in <= 0. then None
  else begin
    let result = ref None and exhausted = ref false in
    while !result = None && not !exhausted do
      let in_spike = t.cursor >= spike_at && t.cursor < spike_end in
      let seg_rate = if in_spike then rate_in else rate in
      let seg_end =
        if t.cursor < spike_at then spike_at
        else if in_spike then spike_end
        else max_int
      in
      match exp_gap t.rng ~rate:seg_rate with
      | None ->
        if seg_end = max_int then exhausted := true
        else t.cursor <- seg_end
      | Some gap ->
        let candidate =
          if t.cursor > max_int - gap then max_int else t.cursor + gap
        in
        if candidate >= seg_end then
          if seg_end = max_int then exhausted := true (* clock overflow *)
          else t.cursor <- seg_end
        else begin
          t.cursor <- candidate;
          result := Some candidate
        end
    done;
    !result
  end

let next t =
  match t.process with
  | Poisson { rate } -> (
    match exp_gap t.rng ~rate with
    | None -> None
    | Some gap ->
      t.cursor <- t.cursor + gap;
      Some t.cursor)
  | Mmpp { rate_lo; rate_hi; dwell_lo; dwell_hi } ->
    next_mmpp t ~rate_lo ~rate_hi ~dwell_lo ~dwell_hi
  | Diurnal { rate; period; depth } -> next_diurnal t ~rate ~period ~depth
  | Spike { rate; spike_at; spike_len; spike_mult } ->
    next_spike t ~rate ~spike_at ~spike_len ~spike_mult

let take t n =
  let rec go acc k =
    if k = 0 then List.rev acc
    else match next t with None -> List.rev acc | Some x -> go (x :: acc) (k - 1)
  in
  Array.of_list (go [] (max 0 n))
