(* Quickstart: drop MineSweeper between a program and its allocator.

   Run with: dune exec examples/quickstart.exe *)

let () =
  (* Everything runs on a simulated machine: memory, clock, cost model. *)
  let machine = Alloc.Machine.create () in
  let ms = Minesweeper.Instance.create machine in
  Fmt.pr "MineSweeper quickstart@.@.";

  (* Allocate an object and write a pointer to it into a "global". *)
  Vmem.map machine.Alloc.Machine.mem ~addr:Layout.globals_base
    ~len:Layout.globals_size;
  let obj = Minesweeper.Instance.malloc ms 64 in
  let global_slot = Layout.globals_base in
  Vmem.store machine.Alloc.Machine.mem global_slot obj;
  Fmt.pr "allocated 64 B at %#x, pointer stored in a global@." obj;

  (* Free it while the pointer is still live: MineSweeper quarantines. *)
  Minesweeper.Instance.free ms obj;
  Fmt.pr "free() intercepted -> quarantined: %b@."
    (Minesweeper.Instance.is_quarantined ms obj);

  (* The instance's counters live in its metrics registry, by name. *)
  let counter name =
    Option.get (Obs.Registry.read (Minesweeper.Instance.registry ms) name)
  in

  (* A second free of the same pointer is a double free; it is absorbed. *)
  Minesweeper.Instance.free ms obj;
  Fmt.pr "double free absorbed (count: %d)@." (counter "ms.double_frees");

  (* Drive enough churn that sweeps run. The dangling global pointer
     keeps the object quarantined through every sweep. *)
  let churn () =
    for _ = 1 to 30_000 do
      let p = Minesweeper.Instance.malloc ms 64 in
      Minesweeper.Instance.free ms p
    done;
    Minesweeper.Instance.drain ms
  in
  churn ();
  Fmt.pr "after %d sweeps with the pointer live -> still quarantined: %b@."
    (counter "ms.sweeps")
    (Minesweeper.Instance.is_quarantined ms obj);

  (* Clear the last pointer; the next sweeps release the memory. *)
  Vmem.store machine.Alloc.Machine.mem global_slot 0;
  churn ();
  Fmt.pr "after clearing the pointer           -> still quarantined: %b@.@."
    (Minesweeper.Instance.is_quarantined ms obj);

  Fmt.pr "run statistics:@.";
  List.iter
    (fun (name, v) ->
      if String.starts_with ~prefix:"ms." name then
        Fmt.pr "  %-26s %d@." name v)
    (Obs.Registry.snapshot (Minesweeper.Instance.registry ms))
