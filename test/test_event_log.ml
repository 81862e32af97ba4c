(* Lifecycle events: the zero-length spans an instance emits into its
   trace ring, read back by label. *)

module I = Minesweeper.Instance
module Ring = Obs.Trace_ring

let lifecycle_labels =
  [ "free"; "double-free"; "unmap"; "sweep-start"; "sweep-finish"; "stw";
    "alloc-pause" ]

let lifecycle ms =
  List.filter
    (fun (s : Ring.span) -> List.mem s.Ring.label lifecycle_labels)
    (Ring.spans (I.trace_ring ms))

let logged spans label =
  List.exists (fun (s : Ring.span) -> s.Ring.label = label) spans

let test_instance_logs_lifecycle () =
  let machine = Alloc.Machine.create () in
  List.iter
    (fun (base, size) ->
      Vmem.map machine.Alloc.Machine.mem ~addr:base ~len:size)
    Layout.root_regions;
  let ms = I.create machine in
  let p = I.malloc ms 64 in
  I.free ms p;
  I.free ms p;
  let big = I.malloc ms 65536 in
  I.free ms big;
  let early = lifecycle ms in
  Alcotest.(check bool) "free logged" true (logged early "free");
  Alcotest.(check bool) "double free logged" true (logged early "double-free");
  Alcotest.(check bool) "unmap logged" true (logged early "unmap");
  for _ = 1 to 20_000 do
    let q = I.malloc ms 64 in
    I.free ms q
  done;
  I.drain ms;
  let events = lifecycle ms in
  Alcotest.(check bool) "sweep start logged" true (logged events "sweep-start");
  Alcotest.(check bool) "sweep finish logged" true
    (logged events "sweep-finish");
  (* Timestamps must be non-decreasing. *)
  let rec monotone = function
    | (a : Ring.span) :: (b :: _ as rest) ->
      a.Ring.t_start <= b.Ring.t_start && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "timestamps monotone" true (monotone events)

let test_sweep_counters_consistent () =
  let machine = Alloc.Machine.create () in
  let ms = I.create machine in
  for _ = 1 to 20_000 do
    let q = I.malloc ms 64 in
    I.free ms q
  done;
  I.drain ms;
  let released_in_log =
    List.fold_left
      (fun acc (s : Ring.span) ->
        if s.Ring.label = "sweep-finish" then
          acc + List.assoc "released" s.Ring.attrs
        else acc)
      0 (lifecycle ms)
  in
  (* The ring may have dropped early sweeps; what remains must not
     exceed the stats total. *)
  Alcotest.(check bool) "log releases <= stats releases" true
    (released_in_log <= (I.stats ms).Minesweeper.Stats.releases)

let suite =
  ( "minesweeper.event_log",
    [
      Alcotest.test_case "instance logs lifecycle" `Quick
        test_instance_logs_lifecycle;
      Alcotest.test_case "sweep counters consistent" `Quick
        test_sweep_counters_consistent;
    ] )
