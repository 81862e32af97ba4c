(* Reference span ring: [Obs.Trace_ring] as it was when each slot held a
   whole span record, in a [span option array] sized to the capacity up
   front. [test_obs.ml] checks that the flat ring keeps exactly the spans
   this one keeps. *)

module Ring = Obs.Trace_ring

type t = {
  ring : Ring.span option array;
  mutable next : int;
  mutable emitted : int;
}

let create ?(capacity = 1024) () =
  assert (capacity > 0);
  { ring = Array.make capacity None; next = 0; emitted = 0 }

let capacity t = Array.length t.ring

let emit t ~phase ~label ~t_start ~t_end ?(bytes = 0) ?(attrs = []) () =
  let s = { Ring.seq = t.emitted; phase; label; t_start; t_end; bytes; attrs } in
  t.ring.(t.next) <- Some s;
  t.next <- (t.next + 1) mod Array.length t.ring;
  t.emitted <- t.emitted + 1

type pending = { p_phase : Ring.phase; p_label : string; p_start : int }

let enter ~now phase label = { p_phase = phase; p_label = label; p_start = now }

let exit t p ~now ?bytes ?attrs () =
  emit t ~phase:p.p_phase ~label:p.p_label ~t_start:p.p_start ~t_end:now
    ?bytes ?attrs ()

let spans t =
  let n = Array.length t.ring in
  let rec collect i acc =
    if i = n then List.rev acc
    else
      let idx = (t.next + i) mod n in
      collect (i + 1)
        (match t.ring.(idx) with Some s -> s :: acc | None -> acc)
  in
  collect 0 []

let emitted t = t.emitted
let retained t = min t.emitted (Array.length t.ring)
let wrapped t = t.emitted > Array.length t.ring
