(* Execution statistics.

   Workers own private counter records (no sharing, no false-sharing
   hazards beyond allocation placement); the runtime merges them after
   the parallel phase. These counters feed the paper's Figures 4 and 5
   (task rates, abort ratios, rounds, atomic update rates). *)

type worker = {
  mutable committed : int;  (* tasks that executed to completion *)
  mutable aborted : int;  (* conflict aborts / failed round selections *)
  mutable acquires : int;  (* neighborhood mark operations *)
  mutable atomic_updates : int;  (* CAS-class operations on shared words *)
  mutable work : int;  (* abstract work units reported by operators *)
  mutable pushes : int;  (* tasks created *)
  mutable inspections : int;  (* deterministic-scheduler inspect executions *)
  mutable chunks : int;  (* chunk grabs in dynamic parallel iteration *)
  mutable spins : int;  (* pool wakeups served by the spin fast path *)
  mutable parks : int;  (* pool waits that fell back to the condvar *)
}

let make_worker () =
  {
    committed = 0;
    aborted = 0;
    acquires = 0;
    atomic_updates = 0;
    work = 0;
    pushes = 0;
    inspections = 0;
    chunks = 0;
    spins = 0;
    parks = 0;
  }

(* Wall-clock breakdown of a run across scheduler phases. For the DIG
   scheduler [inspect_s]/[select_s] accumulate the two parallel phases
   and [other_s] is everything else (generation sort, sequential round
   glue, window adaptation); serial and speculative runs book all their
   time under [select_s] (execution). The three fields always sum to
   [time_s]. *)
type phase_times = { inspect_s : float; select_s : float; other_s : float }

let breakdown ~inspect_s ~select_s ~time_s =
  let inspect_s = Float.max 0.0 inspect_s
  and select_s = Float.max 0.0 select_s in
  { inspect_s; select_s; other_s = Float.max 0.0 (time_s -. inspect_s -. select_s) }

let phase_total p = p.inspect_s +. p.select_s +. p.other_s

type t = {
  threads : int;
  commits : int;
  aborts : int;
  acquired : int;
  atomics : int;
  work_units : int;
  created : int;
  inspected : int;
  spins : int;  (* pool-synchronization wakeups served by spinning *)
  parks : int;  (* pool-synchronization waits that parked on a condvar *)
  rounds : int;  (* deterministic scheduler rounds (0 for nondet/serial) *)
  generations : int;  (* sort generations of the deterministic scheduler *)
  buckets : int;
      (* soft-priority buckets opened by the deterministic scheduler
         (0 when prio=off or for nondet/serial) *)
  digest : Trace_digest.t;
      (* Round-trace digest of the deterministic scheduler
         ([Trace_digest.absent] for nondet/serial): an FNV-1a fold of
         every round's window size, commit count and committed task ids.
         Two deterministic runs took the same schedule iff their digests
         agree — the O(1) comparison the determinism audit relies on. *)
  time_s : float;  (* wall-clock of the parallel section *)
  phases : phase_times;  (* where [time_s] went, per scheduler phase *)
}

(* Counter-wise sum of worker records. *)
let total workers =
  let t = make_worker () in
  Array.iter
    (fun w ->
      t.committed <- t.committed + w.committed;
      t.aborted <- t.aborted + w.aborted;
      t.acquires <- t.acquires + w.acquires;
      t.atomic_updates <- t.atomic_updates + w.atomic_updates;
      t.work <- t.work + w.work;
      t.pushes <- t.pushes + w.pushes;
      t.inspections <- t.inspections + w.inspections;
      t.chunks <- t.chunks + w.chunks;
      t.spins <- t.spins + w.spins;
      t.parks <- t.parks + w.parks)
    workers;
  t

let merge ?(digest = Trace_digest.absent) ?phases ?(buckets = 0) ~threads ~rounds
    ~generations ~time_s workers =
  let w = total workers in
  {
    threads;
    commits = w.committed;
    aborts = w.aborted;
    acquired = w.acquires;
    atomics = w.atomic_updates;
    work_units = w.work;
    created = w.pushes;
    inspected = w.inspections;
    spins = w.spins;
    parks = w.parks;
    rounds;
    generations;
    buckets;
    digest;
    time_s;
    phases =
      (match phases with
      | Some p -> p
      | None -> breakdown ~inspect_s:0.0 ~select_s:0.0 ~time_s);
  }

(* --- the epilogue all three schedulers share ------------------------ *)

let emit (sink : Obs.sink) event =
  (* detlint: allow wall-clock — Obs.at_s is an absolute wall-clock timestamp; durations use Clock *)
  sink.emit { Obs.at_s = Unix.gettimeofday (); event }

type session = {
  workers : worker array;
  pool : Parallel.Domain_pool.t option;
  sync0 : (int * int) array;  (* the pool's (spins, parks) at [start] *)
}

(* The policy's thread count rules; extra pool workers stay idle. *)
let start ?pool ~threads () =
  let size, sync0 =
    match pool with
    | Some p -> (Parallel.Domain_pool.size p, Parallel.Domain_pool.sync_counters p)
    | None -> (threads, [||])
  in
  { workers = Array.init (min threads size) (fun _ -> make_worker ()); pool; sync0 }

let workers s = s.workers

let finish ?digest ?(rounds = 0) ?(generations = 0) ?buckets ?carried ?phases ~sink
    ~time_s s =
  Option.iter
    (fun pool ->
      let sync1 = Parallel.Domain_pool.sync_counters pool in
      Array.iteri
        (fun w (st : worker) ->
          let s0, p0 = s.sync0.(w) and s1, p1 = sync1.(w) in
          st.spins <- s1 - s0;
          st.parks <- p1 - p0)
        s.workers)
    s.pool;
  let tracing = not (Obs.Sink.is_null sink) in
  let phases =
    match phases with
    | Some p -> p
    | None ->
        if tracing then
          emit sink (Obs.Phase_time { round = 0; phase = Obs.Execute; dt_s = time_s });
        breakdown ~inspect_s:0.0 ~select_s:time_s ~time_s
  in
  if tracing then
    Array.iteri
      (fun w (st : worker) ->
        emit sink
          (Obs.Worker_counters
             { worker = w; committed = st.committed; aborted = st.aborted;
               acquires = st.acquires; atomics = st.atomic_updates; work = st.work;
               pushes = st.pushes; inspections = st.inspections; chunks = st.chunks;
               spins = st.spins; parks = st.parks }))
      s.workers;
  let counted = match carried with Some c -> Array.append s.workers [| c |] | None -> s.workers in
  merge ?digest ?buckets ~phases ~threads:(Array.length s.workers) ~rounds ~generations
    ~time_s counted

(* Combine reports of consecutive executions (e.g. the epochs of
   preflow-push) into one summary. *)
let add a b =
  {
    threads = max a.threads b.threads;
    commits = a.commits + b.commits;
    aborts = a.aborts + b.aborts;
    acquired = a.acquired + b.acquired;
    atomics = a.atomics + b.atomics;
    work_units = a.work_units + b.work_units;
    created = a.created + b.created;
    inspected = a.inspected + b.inspected;
    spins = a.spins + b.spins;
    parks = a.parks + b.parks;
    rounds = a.rounds + b.rounds;
    generations = a.generations + b.generations;
    buckets = a.buckets + b.buckets;
    digest = Trace_digest.combine a.digest b.digest;
    time_s = a.time_s +. b.time_s;
    phases =
      {
        inspect_s = a.phases.inspect_s +. b.phases.inspect_s;
        select_s = a.phases.select_s +. b.phases.select_s;
        other_s = a.phases.other_s +. b.phases.other_s;
      };
  }

let zero threads = merge ~threads ~rounds:0 ~generations:0 ~time_s:0.0 [||]

let abort_ratio t =
  let attempts = t.commits + t.aborts in
  if attempts = 0 then 0.0 else float_of_int t.aborts /. float_of_int attempts

let commits_per_us t = if t.time_s <= 0.0 then 0.0 else float_of_int t.commits /. (t.time_s *. 1e6)

let atomics_per_us t = if t.time_s <= 0.0 then 0.0 else float_of_int t.atomics /. (t.time_s *. 1e6)

let pp_phases ppf p =
  Fmt.pf ppf "phases inspect=%.4fs select=%.4fs other=%.4fs" p.inspect_s
    p.select_s p.other_s

(* The digest line only means something for deterministic runs; for
   serial/nondet ([Trace_digest.absent]) show the phase breakdown
   without a misleading "digest=-". *)
let pp_digest ppf d =
  if not (Trace_digest.is_absent d) then Fmt.pf ppf " digest=%a" Trace_digest.pp d

(* Bucket count only appears under soft-priority scheduling; suppress
   the column for the (common) unordered runs. *)
let pp_buckets ppf b = if b > 0 then Fmt.pf ppf " buckets=%d" b

let pp ppf t =
  Fmt.pf ppf
    "@[<v>threads=%d commits=%d aborts=%d (ratio %.4f)@ acquires=%d atomics=%d work=%d created=%d@ \
     inspections=%d rounds=%d generations=%d%a spins=%d parks=%d%a time=%.4fs@ %a@]"
    t.threads t.commits t.aborts (abort_ratio t) t.acquired t.atomics t.work_units t.created
    t.inspected t.rounds t.generations pp_buckets t.buckets t.spins t.parks pp_digest
    t.digest t.time_s pp_phases t.phases
