(** MineSweeper: drop-in use-after-free prevention by quarantine and
    linear memory sweeps.

    Reproduction of Erdős, Ainsworth & Jones, ASPLOS 2022. The library
    entry point re-exports the public modules:

    - {!Instance} — the drop-in [malloc]/[free] layer itself;
    - {!Config} — operation modes, optimisation levels, thresholds;
    - {!Pipeline} — sweep stage descriptors, plans and outcomes;
    - {!Shadow} — the per-granule mark bitmap used by sweeps;
    - {!Quarantine} — the delayed-free list with thread-local buffers;
    - {!Stats} — counters published by a running instance.

    Quickstart:
    {[
      let machine = Alloc.Machine.create () in
      let ms = Minesweeper.Instance.create machine in
      let p = Minesweeper.Instance.malloc ms 64 in
      Minesweeper.Instance.free ms p;
      (* p stays quarantined until a sweep proves no dangling pointers *)
    ]} *)

module Config = Config
module Pipeline = Pipeline
module Shadow = Shadow
module Stats = Stats
module Quarantine = Quarantine
module Instance = Instance
