(** Modeled parallel marking: page sharding, a static marker
    assignment, and the cost projections built on it.

    The paper's sweeper can mark with helper threads (Section 4.4).
    This engine models that without running any: every scan executes
    on the calling domain, and the number of marker domains is a
    parameter of the cost model only. So MineSweeper's outputs (shadow
    set, counters, sweep decisions, telemetry exports) cannot depend on
    it, and the modeled speedup is a pure function of the shard plan:

    - The caller takes a canonical snapshot of the readable pages
      (sorted by base address, zero-copy) and slices it into fixed-size
      chunks of consecutive pages, numbered [0, 1, 2, ...].
    - Chunk [i] is assigned to modeled marker [i mod domains]. The
      bytes each marker would stream ([stats.seeded_bytes]) drive the
      imbalance gauge, the per-domain mark spans and the critical-path
      projection.
    - [scan] runs once per chunk, in chunk-id order, and its results
      come back in that order for the caller's Merge stage.

    The engine is policy-free: it does not know about shadow maps or
    summaries. The sweep pipeline's Mark stage ([Instance.Sweep.run])
    passes a [scan] that collects candidate quarantine hits in full-scan
    mode, or one that builds per-page pointer summaries for the pages
    classified for rescan in incremental mode. *)

type page = {
  base : int;  (** page base address *)
  bytes : Bytes.t;  (** live page frame (read-only; never copied) *)
  write_gen : int;  (** last-write scan generation (incremental mode) *)
}

type chunk = {
  cid : int;  (** dense chunk id: the canonical merge order *)
  pages : page array;  (** consecutive pages, ascending base *)
  chunk_bytes : int;  (** total payload bytes in [pages] *)
}

val default_chunk_pages : int
(** Pages per chunk (32 = 128 KiB of 4 KiB pages): the granule of the
    static marker assignment. *)

val shard : ?chunk_pages:int -> page array -> chunk array
(** Slice a base-sorted page snapshot into chunks of [chunk_pages]
    consecutive pages (last chunk may be short). Chunk ids number the
    slices in address order. *)

type stats = {
  domains : int;  (** modeled markers actually used *)
  chunks : int;  (** chunks sharded this run *)
  total_bytes : int;  (** payload bytes across all chunks *)
  seeded_bytes : int array;
      (** per-marker payload bytes under the static round-robin
          assignment — the basis of the imbalance gauge, the per-domain
          spans and the cost projection *)
}

val imbalance : stats -> int
(** Max minus min of {!stats.seeded_bytes}: how unevenly the static
    assignment splits the address space. *)

val map_chunks :
  domains:int -> scan:(chunk -> 'a) -> chunk array -> 'a array * stats
(** [map_chunks ~domains ~scan chunks] runs [scan] on every chunk, in
    order, on the calling domain, and returns the results in the same
    order (chunk-id order for the output of {!shard}) plus the static
    assignment of the chunks to [domains] modeled markers (clamped to
    [1 .. number of chunks]). *)

val pipeline_cycles : domains:int -> batches:int -> int array -> int
(** [pipeline_cycles ~domains ~batches stage_cycles] is the modeled
    finish time of running the given per-stage cycle totals as a
    software pipeline over [batches] work batches: stage [s] of batch
    [k] starts when stage [s-1] of batch [k] and stage [s] of batch
    [k-1] are both done, so independent stages of different batches
    overlap. Stage totals are split across batches by deterministic
    integer prefix shares (they sum exactly). With [domains <= 1] or
    [batches <= 1] there is nothing to overlap with and the result is
    the sequential sum of [stage_cycles]; the result never exceeds that
    sum. A pure projection of the stage totals — like
    {!critical_path_cycles} it feeds telemetry only and never the
    simulated clock, so exports stay byte-identical across domain
    counts. *)

val critical_path_cycles :
  single_per_byte:float -> bandwidth_per_byte:float -> stats -> int
(** Modeled mark-phase critical path under the static assignment: the
    slowest marker's streaming cost
    [bytes_cost single_per_byte seeded_bytes.(d)] or the DRAM floor
    [bytes_cost bandwidth_per_byte total_bytes], whichever binds. It
    is exported as a [par.*] metric and is how the speedup figures
    measure scaling. *)
