(** Execution statistics for a runtime invocation.

    These back the paper's application-characteristics study (Figures 4
    and 5: task commit rates, abort ratios, rounds, atomic update
    rates). *)

type worker = {
  mutable committed : int;
  mutable aborted : int;
  mutable acquires : int;
  mutable atomic_updates : int;
  mutable work : int;
  mutable pushes : int;
  mutable inspections : int;
  mutable chunks : int;
  mutable spins : int;
  mutable parks : int;
}
(** Per-worker mutable counters; owned exclusively by one worker during a
    parallel section. [chunks] counts chunk grabs in the deterministic
    scheduler's dynamic parallel iteration — a load-balance signal
    surfaced through the [Worker_counters] observability event.
    [spins]/[parks] mirror the {!Parallel.Domain_pool} sync counters:
    wakeups served by the bounded spin fast path vs. waits that fell
    back to the mutex/condvar slow path. Both are timing-dependent and
    therefore non-deterministic. *)

val make_worker : unit -> worker

type phase_times = { inspect_s : float; select_s : float; other_s : float }
(** Wall-clock breakdown of {!t.time_s} across scheduler phases. The DIG
    scheduler reports its two parallel phases in [inspect_s]/[select_s]
    with sequential glue (generation sort, mark resolution, window
    adaptation) in [other_s]; serial and speculative executions book all
    their time under [select_s]. Always sums to {!t.time_s} (up to float
    rounding). *)

val breakdown : inspect_s:float -> select_s:float -> time_s:float -> phase_times
(** Clamp the measured phase times to [\[0, ∞)] and attribute the
    remainder of [time_s] to [other_s] (clamped at 0). *)

val phase_total : phase_times -> float
(** Sum of the three components. *)

type t = {
  threads : int;
  commits : int;
  aborts : int;
  acquired : int;
  atomics : int;
  work_units : int;
  created : int;
  inspected : int;
  spins : int;  (** pool-sync wakeups served by the spin fast path *)
  parks : int;  (** pool-sync waits that parked on a condvar *)
  rounds : int;
  generations : int;
  buckets : int;
      (** soft-priority buckets opened by the deterministic scheduler
          (0 when [prio=off] and for nondet/serial) *)
  digest : Trace_digest.t;
      (** Round-trace digest of a deterministic execution
          ({!Trace_digest.absent} for nondet/serial). Two deterministic
          runs of the same program took the same schedule iff their
          digests agree. *)
  time_s : float;
  phases : phase_times;  (** where [time_s] went, per scheduler phase *)
}
(** Aggregated result of one {!Run.exec}. *)

val total : worker array -> worker
(** Counter-wise sum, as a fresh record. *)

val merge :
  ?digest:Trace_digest.t ->
  ?phases:phase_times ->
  ?buckets:int ->
  threads:int ->
  rounds:int ->
  generations:int ->
  time_s:float ->
  worker array ->
  t
(** When [phases] is omitted the whole of [time_s] is booked under
    [other_s]; [buckets] defaults to 0 (unordered execution). *)

(** {1 Scheduler epilogue} Shared by the three schedulers. *)

val emit : Obs.sink -> Obs.event -> unit
(** Stamp an event with the wall-clock time ([Obs.at_s]) and deliver it. *)

type session
(** The per-worker counters of one scheduler run. *)

val start : ?pool:Parallel.Domain_pool.t -> threads:int -> unit -> session
(** One fresh worker per thread, [threads] clamped to the [pool]'s size. *)

val workers : session -> worker array

val finish :
  ?digest:Trace_digest.t ->
  ?rounds:int ->
  ?generations:int ->
  ?buckets:int ->
  ?carried:worker ->
  ?phases:phase_times ->
  sink:Obs.sink ->
  time_s:float ->
  session ->
  t
(** Attribute the pool's spins and parks since {!start} to the workers,
    emit one [Worker_counters] per worker and {!merge}; [carried] is
    merged as one more worker but gets no event. Without [phases] the
    run was one [Execute] phase: its [Phase_time] is emitted first and
    [time_s] is booked under [select_s]. *)

val add : t -> t -> t
(** Combine consecutive executions (counters sum, times add, digests
    chain with {!Trace_digest.combine}). *)

val zero : int -> t
(** Neutral element of {!add} for a given thread count. *)

val abort_ratio : t -> float
(** Aborts / (commits + aborts); the paper's abort ratio (Fig. 4). *)

val commits_per_us : t -> float
(** Committed tasks per microsecond (Fig. 4's task rate). *)

val atomics_per_us : t -> float
(** Atomic updates per microsecond (Fig. 5). *)

val pp_phases : Format.formatter -> phase_times -> unit

val pp : Format.formatter -> t -> unit
(** Multi-line summary. The digest is printed only when present
    (deterministic runs); serial/nondet runs show the phase-time
    breakdown without a digest line. *)
