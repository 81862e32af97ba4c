type t = {
  malloc_fast : int;
  malloc_slow : int;
  free_fast : int;
  free_slow : int;
  quarantine_push : int;
  quarantine_flush_per_entry : int;
  quarantine_flush_lock : int;
  quarantine_flush_batch_per_entry : int;
  merge_per_page : int;
  zero_per_byte : float;
  sweep_per_byte : float;
  mark_single_per_byte : float;
  mark_per_byte : float;
  shadow_test_per_granule : float;
  release_per_entry : int;
  syscall : int;
  page_fault : int;
  touch_per_byte : float;
  cold_alloc_per_byte : float;
  work_unit : int;
  stw_signal : int;
  stw_per_thread : int;
}

(* Calibration notes:
   - sweep_per_byte models a streaming read + shadow store; DRAM-bandwidth
     bound at ~16 B/cycle on the paper's machine gives ~0.0625, we charge a
     little more for the shadow-map update.
   - mark_single_per_byte is what ONE marker thread moves through memory:
     a single core's load + range-test + buffer-append loop streams ~4
     bytes per cycle, a quarter of the DRAM bandwidth above. The gap is
     exactly the headroom the modeled parallel mark (lib/parsweep)
     projects: aggregate marker throughput scales with domains until it
     hits the 16 B/cycle memory wall at four of them.
   - mark_per_byte is much higher: transitive marking chases pointers and
     takes a cache miss on most object visits (MarkUs/Boehm behaviour).
   - cold_alloc_per_byte captures the L2/L3 misses caused by the quarantine
     delaying reuse of hot memory; the paper identifies this (not sweeping)
     as the dominant time overhead (Section 5.5 / 5.6). *)
let default = {
  malloc_fast = 22;
  malloc_slow = 260;
  free_fast = 18;
  free_slow = 90;
  quarantine_push = 10;
  quarantine_flush_per_entry = 6;
  quarantine_flush_lock = 40;
  quarantine_flush_batch_per_entry = 2;
  merge_per_page = 12;
  zero_per_byte = 0.05;
  sweep_per_byte = 0.04;
  mark_single_per_byte = 0.25;
  mark_per_byte = 0.30;
  shadow_test_per_granule = 0.9;
  release_per_entry = 40;
  syscall = 1200;
  page_fault = 1400;
  touch_per_byte = 0.05;
  cold_alloc_per_byte = 1.5;
  work_unit = 1;
  stw_signal = 12000;
  stw_per_thread = 2500;
}

let scale_sweep f t = { t with sweep_per_byte = t.sweep_per_byte *. f }

let bytes_cost per_byte n =
  if n <= 0 then 0 else max 1 (int_of_float (per_byte *. float_of_int n))
