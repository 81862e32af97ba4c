(* Read one metric of a registry by name: the instance's counters live
   there and nowhere else. *)
let read reg name =
  match Obs.Registry.read reg name with
  | Some v -> v
  | None -> Alcotest.failf "metric %s is not registered" name
