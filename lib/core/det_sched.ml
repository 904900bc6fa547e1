(* Deterministic interference-graph (DIG) scheduling — Fig. 2 and Fig. 3
   of the paper, with all three §3.3 optimizations.

   Execution proceeds in generations (one per deterministic sort of the
   [todo] set) and rounds within a generation. All state of a run lives
   in one [state] record, and each step is a named function over it:

     next_generation  sort the todo set into the next generation and lay
                      it out (spread permutation or bucket runs).
     setup_window     calculateWindow / getWindowOfTasks.
     inspect          run a deterministically chosen window of tasks up
                      to their failsafe points, marking neighborhoods
                      with [writeMarksMax]. The final mark of a location
                      is the max id among touching tasks regardless of
                      timing, so the implicitly built interference graph
                      — and the selected independent set — are
                      deterministic.
     select           selectAndExec: a task commits iff its defeat flag
                      is clear, which is provably equivalent to "all its
                      marks still carry its id" (the flag is set either
                      by the task that displaced our mark, or by
                      ourselves when we observe a higher mark; marks
                      only grow within a round). Committed tasks run
                      their write phase.
     end_round        fold the round into the digest, audit it, collect
                      children, compact the deque (failed tasks keep
                      their place ahead of untried ones, preserving id
                      order), drain bucket runs and adapt the window.
     capture/restore  the round-boundary state of checkpoint/replay.

   [run] checks its arguments, creates the state, loops over the phases
   and ends with the epilogue all schedulers share ([Stats.finish]).

   Determinism argument, in code terms: the window contents are a prefix
   of a deterministically ordered sequence; the marks after inspect are a
   max-fold over a deterministic set; the selected set is therefore
   unique; committed tasks have pairwise-disjoint neighborhoods, so their
   write phases commute; and children ids come from a lexicographic
   (parent id, birth index) sort, independent of which worker ran what.
   The window size for the next round depends only on the (deterministic)
   commit count — the paper's parameterless adaptive windowing.

   Steady-state rounds are allocation-free and release-free: the pending
   set is an in-place [Pending] deque over the generation array (window =
   index range, descending compaction), the defeat table is a flat array
   indexed by [id - generation base] (generation ids are dense) with
   round stamps instead of per-round clearing, tasks reuse their
   neighborhood / child arrays across retries via the [Context] scratch
   buffers, children accumulate in flat per-worker [Child_buffer]s
   instead of consed lists, and every round claims marks under a fresh
   [Lock] epoch — marks surviving the previous round are stale by
   construction, so the former end-of-select [Lock.release] pass (one CAS
   per held lock per task per round) is gone entirely. The schedule
   itself is bit-for-bit the one the original list-based implementation
   produced — test/test_digest_fixture.ml pins it. *)

type ('item, 'state) task = {
  item : 'item;
  id : int;
  (* Defeat flag (§3.3). Written concurrently during inspect, but only
     ever from [true] to [false] (an idempotent immediate), so the plain
     racy write is benign; the pool barrier publishes it before the
     commit phase reads it. *)
  mutable alive : bool;
  (* First [n_locks] entries are this round's neighborhood, in
     acquisition order; capacity is reused across retries. *)
  mutable neighborhood : Lock.t array;
  mutable n_locks : int;
  mutable saved : 'state option;
  mutable pure : bool;  (* inspect finished without reaching a failsafe *)
  mutable pure_children : 'item array;  (* first [n_pure_children], push order *)
  mutable n_pure_children : int;
  mutable task_work : int;  (* inspect-phase (prefix) work units *)
  mutable commit_work : int;  (* commit-phase work units *)
}

let make_task id item =
  {
    item;
    id;
    alive = true;
    neighborhood = [||];
    n_locks = 0;
    saved = None;
    pure = false;
    pure_children = [||];
    n_pure_children = 0;
    task_work = 0;
    commit_work = 0;
  }

(* §3.3 locality spread: deal a sequence into [spread] strided piles so
   that tasks adjacent in iteration order (likely to share neighborhoods)
   land in different rounds. A fixed constant permutation — deterministic
   and machine-independent. *)
let spread_permute spread arr =
  let n = Array.length arr in
  if spread <= 1 || n <= spread then arr
  else begin
    let out = Array.make n arr.(0) in
    let idx = ref 0 in
    for pile = 0 to spread - 1 do
      let i = ref pile in
      while !i < n do
        out.(!idx) <- arr.(!i);
        incr idx;
        i := !i + spread
      done
    done;
    out
  end

(* The parameterless window controller (§3.1): growth on a good round,
   proportional shrink (with a floor) on a bad one. Exposed for the
   property tests; must stay bit-identical to the original inline
   computation — the adapted sizes feed the round-trace digest. *)
let adapt_window ~target_ratio ~window ~committed ~w_use =
  let ratio = float_of_int committed /. float_of_int w_use in
  if ratio >= target_ratio then min (window * 2) (1 lsl 22)
  else max 32 (int_of_float (float_of_int window *. ratio /. target_ratio) + 1)

(* Deterministic id assignment (§3.2). Children are sorted by
   (parent id, birth index) — unique per child, so the order is total
   and independent of which worker buffered what. Ids are the sorted
   ranks offset by a counter that grows monotonically across
   generations. With [static_id], ids come from the application's fixed
   task universe instead (§3.3, third optimization) and duplicates
   collapse to a single task. Either way the assigned ids are dense in
   [base, base + count) — the defeat table below indexes on exactly
   that.

   Returns tasks in id order; the caller applies the spread permutation
   (unordered generations) or the bucket layout (soft-priority
   generations) on top. *)
let form_generation ~static_id ~base (todo : 'item Child_buffer.t) =
  let n = Child_buffer.length todo in
  match static_id with
  | Some key_of ->
      let arr =
        Array.init n (fun i ->
            let item = Child_buffer.item todo i in
            (key_of item, item))
      in
      Array.sort (fun (a, _) (b, _) -> compare a b) arr;
      let tasks = ref [] in
      Array.iteri
        (fun i (key, item) ->
          let duplicate = i > 0 && fst arr.(i - 1) = key in
          if not duplicate then tasks := item :: !tasks)
        arr;
      Array.mapi (fun i item -> make_task (base + i) item) (Array.of_list (List.rev !tasks))
  | None ->
      let idx = Array.init n (fun i -> i) in
      Array.sort
        (fun i j ->
          let p1 = Child_buffer.parent todo i and p2 = Child_buffer.parent todo j in
          if p1 <> p2 then compare (p1 : int) p2
          else compare (Child_buffer.birth todo i : int) (Child_buffer.birth todo j))
        idx;
      Array.mapi (fun r i -> make_task (base + r) (Child_buffer.item todo i)) idx

(* Delta-stepping bucket index with floor semantics, so negative
   priorities order correctly below zero instead of folding onto
   bucket 0. *)
let bucket_of ~delta p = if p >= 0 then p / delta else -(((-p) + delta - 1) / delta)

(* Per-generation automatic delta: spread the priority span over ~64
   buckets. A pure function of the generation's priorities, so [auto]
   is as deterministic as an explicit delta. *)
let auto_delta prios =
  let pmin = ref prios.(0) and pmax = ref prios.(0) in
  Array.iter
    (fun p ->
      if p < !pmin then pmin := p;
      if p > !pmax then pmax := p)
    prios;
  max 1 (((!pmax - !pmin) / 64) + 1)

(* Group a run-contiguous sequence of [n] bucket indices into its
   [(bucket, size)] run table, in order. *)
let bucket_runs n bucket =
  let runs = ref [] and start = ref 0 in
  for i = 1 to n do
    if i = n || bucket i <> bucket !start then begin
      runs := (bucket !start, i - !start) :: !runs;
      start := i
    end
  done;
  Array.of_list (List.rev !runs)

(* Lay an id-ordered generation out as contiguous delta-stepping bucket
   runs: stable-sort by bucket (ties by position, i.e. id), group equal
   buckets, and spread-permute each run on its own — windows never
   straddle a bucket, so the permutation must not either. Returns the
   reordered tasks, the [(bucket, size)] run table and the delta used. *)
let bucketize ~mode ~spread ~priority generation =
  let n = Array.length generation in
  let prios = Array.map (fun t -> priority t.item) generation in
  let delta =
    match mode with
    | Policy.Prio_delta d -> d
    | Policy.Prio_auto -> auto_delta prios
    | Policy.Prio_off -> invalid_arg "Det_sched.bucketize: prio=off"
  in
  let idx = Array.init n Fun.id in
  Array.sort
    (fun i j ->
      let bi = bucket_of ~delta prios.(i) and bj = bucket_of ~delta prios.(j) in
      if bi <> bj then compare bi bj else compare i j)
    idx;
  let out = Array.map (fun i -> generation.(i)) idx in
  let runs = bucket_runs n (fun i -> bucket_of ~delta prios.(idx.(i))) in
  let start = ref 0 in
  Array.iter
    (fun (_, len) ->
      Array.blit (spread_permute spread (Array.sub out !start len)) 0 out !start len;
      start := !start + len)
    runs;
  (out, runs, delta)

(* Guided chunk size for dynamic parallel iteration: aim for several
   grabs per worker (cheap load balancing against uneven task costs)
   without letting tiny windows degenerate into per-index contention on
   the shared counter. *)
let chunk_for ~threads n = max 4 (min 1024 (n / (threads * 8)))

(* Chunked dynamic parallel iteration over [0, n). Assignment of indices
   to workers is timing-dependent; nothing the workers compute depends on
   it. Each grab bumps the grabbing worker's [chunks] counter. *)
let par_iter pool ~workers n f =
  let threads = Array.length workers in
  let counter = Atomic.make 0 in
  let chunk = chunk_for ~threads n in
  Parallel.Domain_pool.run pool (fun w ->
      if w >= threads then ()
      else
      let continue_ = ref true in
      while !continue_ do
        let start = Atomic.fetch_and_add counter chunk in
        if start >= n then continue_ := false
        else begin
          workers.(w).Stats.chunks <- workers.(w).Stats.chunks + 1;
          for i = start to min (start + chunk) n - 1 do
            f w i
          done
        end
      done)

(* Round-boundary scheduler state (checkpoint/replay), documented in
   the interface. *)
type 'item boundary = {
  b_rounds : int;
  b_generations : int;
  b_next_id : int;
  b_gen_base : int;
  b_window : int;
  b_delta : int;
  b_buckets : int;
  b_digest : Trace_digest.t;
  b_pending_ids : int array;
  b_pending_items : 'item array;
  b_todo_parents : int array;
  b_todo_births : int array;
  b_todo_items : 'item array;
  b_commits : int;
  b_aborts : int;
  b_acquired : int;
  b_work : int;
  b_created : int;
  b_inspected : int;
}

(* All state of one scheduler run. The immutable fields are fixed when
   the run starts; the mutable ones are what rounds advance. Together
   with the pending deque, the todo buffer and [carried] they are what
   [capture] writes into a boundary. *)
type ('item, 'state) state = {
  options : Policy.det_options;
  static_id : ('item -> int) option;
  prio_of : 'item -> int;  (* constant 0 (one bucket) without a priority *)
  operator : ('item, 'state) Context.t -> 'item -> unit;
  pool : Parallel.Domain_pool.t;
  audit : Audit.t option;
  record : bool;
  sink : Obs.sink;
  tracing : bool;
  session : Stats.session;
  workers : Stats.worker array;  (* one per thread the policy uses *)
  (* Deterministic counters carried over from the run a resume boundary
     was captured in, counted like one more worker. *)
  carried : Stats.worker;
  contexts : ('item, 'state) Context.t array;
  (* Per-worker flat buffers of (parent id, birth index, item) triples,
     drained into [todo] by the sequential glue each round. *)
  child_buffers : 'item Child_buffer.t array;
  todo : 'item Child_buffer.t;
  pending : ('item, 'state) task Pending.t;
  mutable rounds : int;
  mutable generations : int;
  mutable next_id : int;
  mutable gen_base : int;  (* first id of the current generation *)
  mutable window : int;  (* the next round's window *)
  mutable delta : int;  (* bucket width of the generation; 0 = unordered *)
  mutable buckets : int;  (* soft-priority runs opened *)
  (* Round-trace digest: every quantity folded into it is deterministic
     by the argument in the header comment, so the digest is a pure
     function of the input and the scheduling options. Task ids (not
     items) are folded: ids already encode the deterministic creation
     order. Lock ids are excluded — they come from a process-global
     counter and differ between two runs in one process. *)
  mutable digest : Trace_digest.t;
  (* Defeat table: generation ids are dense in [gen_base, gen_base +
     count), so [id - gen_base] indexes a flat array. Slots are stamped
     with the round that registered them instead of being cleared —
     [rounds] only grows, so a stale stamp can never match. Reads during
     inspect race only with other reads; registration happens in the
     sequential window setup. *)
  mutable slot_task : ('item, 'state) task array;
  mutable slot_round : int array;
  mutable inspect_s : float;
  mutable select_s : float;
  mutable round_records : Schedule.task_record array list;  (* newest first *)
}

let create ~record ~sink ~audit ~threads ~priority ~pool ~options ~static_id ~operator =
  let session = Stats.start ~pool ~threads () in
  let workers = Stats.workers session in
  let threads = Array.length workers in
  let context w =
    let ctx = Context.create () in
    Context.set_stats ctx workers.(w);
    Option.iter (fun a -> Context.set_tape ctx (Some (Audit.tape a w))) audit;
    ctx
  in
  {
    options; static_id; operator; pool; audit; record; sink; session; workers;
    prio_of = Option.value priority ~default:(fun _ -> 0);
    tracing = not (Obs.Sink.is_null sink);
    carried = Stats.make_worker ();
    contexts = Array.init threads context;
    child_buffers = Array.init threads (fun _ -> Child_buffer.create ());
    todo = Child_buffer.create ();
    pending = Pending.create ();
    rounds = 0; generations = 0; next_id = 1; gen_base = 1;
    window = 0; delta = 0; buckets = 0; digest = Trace_digest.seed;
    slot_task = [||]; slot_round = [||];
    inspect_s = 0.0; select_s = 0.0; round_records = [];
  }

(* Called from the sequential glue between parallel phases only. *)
let emit s event = Stats.emit s.sink event

let defeat s id =
  let slot = id - s.gen_base in
  if slot >= 0 && slot < Array.length s.slot_round && s.slot_round.(slot) = s.rounds then
    s.slot_task.(slot).alive <- false
  else
    (* Each round marks under its own fresh lock epoch, so a displaced
       id must belong to the current window. *)
    assert false

let ensure_slots s n filler =
  if n > Array.length s.slot_round then begin
    s.slot_task <- Array.make n filler;
    s.slot_round <- Array.make n 0
  end

(* Open the current soft-priority run, if any. Opening a run folds its
   bucket index and size into the digest — the bucket layout is a pure
   function of (ids, priorities, delta), so this keeps the digest a
   schedule commitment under [prio] too. *)
let open_run s =
  match Pending.current_run s.pending with
  | None -> ()
  | Some (bucket, size) ->
      s.buckets <- s.buckets + 1;
      s.digest <- Trace_digest.fold_int (Trace_digest.fold_int s.digest bucket) size;
      if s.tracing then
        emit s (Obs.Bucket_opened { generation = s.generations; bucket; size })

(* --- phases of a round --------------------------------------------- *)

(* A generation boundary is just a round whose pending deque starts
   empty: this forms the next generation from the (non-empty) todo set
   first. *)
let next_generation s =
  s.generations <- s.generations + 1;
  let generation = form_generation ~static_id:s.static_id ~base:s.next_id s.todo in
  Child_buffer.clear s.todo;
  let gen_len = Array.length generation in
  s.gen_base <- s.next_id;
  s.next_id <- s.next_id + gen_len;
  ensure_slots s gen_len generation.(0);
  (match s.options.priority with
  | Policy.Prio_off ->
      s.delta <- 0;
      Pending.load s.pending (spread_permute s.options.spread generation)
  | mode ->
      let laid_out, runs, delta =
        bucketize ~mode ~spread:s.options.spread ~priority:s.prio_of generation
      in
      s.delta <- delta;
      Pending.load_runs s.pending laid_out runs);
  s.digest <- Trace_digest.fold_int s.digest gen_len;
  if s.delta > 0 then s.digest <- Trace_digest.fold_int s.digest s.delta;
  if s.tracing then
    emit s (Obs.Generation_begin { generation = s.generations; tasks = gen_len });
  (* The first run of a soft-priority generation opens (and is
     digest-folded) as part of generation formation; later runs open
     as their predecessors drain. *)
  open_run s;
  if s.window = 0 then
    s.window <-
      (match s.options.initial_window with
      | Some w -> max 1 w
      | None -> max 32 ((gen_len + 7) / 8))

(* calculateWindow / getWindowOfTasks: start the next round, reset the
   window's tasks and register them in the defeat table. Under
   soft-priority scheduling the window is additionally capped at the
   current bucket run: rounds never mix buckets. Returns the window
   size. *)
let setup_window s =
  s.rounds <- s.rounds + 1;
  let w_use = min s.window (Pending.window_avail s.pending) in
  for i = 0 to w_use - 1 do
    let t = Pending.get s.pending i in
    t.alive <- true;
    t.pure <- false;
    t.n_pure_children <- 0;
    t.saved <- None;
    t.commit_work <- 0;
    let slot = t.id - s.gen_base in
    s.slot_task.(slot) <- t;
    s.slot_round.(slot) <- s.rounds
  done;
  if s.tracing then begin
    emit s (Obs.Round_begin { round = s.rounds; window = w_use });
    let chunk = chunk_for ~threads:(Array.length s.workers) w_use in
    emit s (Obs.Chunk_sized { round = s.rounds; tasks = w_use; chunk })
  end;
  w_use

let inspect s ~stamp ~w_use =
  let on_defeat = defeat s in
  let t0 = Clock.now_s () in
  par_iter s.pool ~workers:s.workers w_use (fun w i ->
      let ctx = s.contexts.(w) in
      let t = Pending.get s.pending i in
      Context.reset ctx ~phase:Inspect ~task_id:t.id ~stamp ~saved:None;
      Context.set_on_defeat ctx on_defeat;
      s.workers.(w).inspections <- s.workers.(w).inspections + 1;
      (match s.operator ctx t.item with
      | () ->
          (* No failsafe point reached: a read-only task. Its whole
             execution — including pushes — happened now; commit just
             publishes the children if selected. *)
          t.pure <- true;
          t.pure_children <- Context.pushed_into ctx t.pure_children;
          t.n_pure_children <- Context.pushed_count ctx
      | exception Context.Failsafe_reached -> ());
      t.neighborhood <- Context.neighborhood_into ctx t.neighborhood;
      t.n_locks <- Context.neighborhood_count ctx;
      t.task_work <- Context.work_units ctx;
      if s.options.continuation then t.saved <- Context.saved ctx);
  let dt = Clock.elapsed_s t0 in
  s.inspect_s <- s.inspect_s +. dt;
  if s.tracing then begin
    let marked = ref 0 and saved = ref 0 in
    for i = 0 to w_use - 1 do
      let t = Pending.get s.pending i in
      marked := !marked + t.n_locks;
      if Option.is_some t.saved then incr saved
    done;
    emit s
      (Obs.Inspect_done
         { round = s.rounds; marked = !marked; saved_continuations = !saved });
    emit s (Obs.Phase_time { round = s.rounds; phase = Obs.Inspect; dt_s = dt })
  end

(* selectAndExec. Surviving marks are NOT released: the next round's
   fresh epoch makes them stale wholesale, deleting one CAS per held
   lock per task per round from the former mark-clearing pass. Returns
   the phase's wall time. *)
let select s ~stamp ~w_use =
  let t0 = Clock.now_s () in
  par_iter s.pool ~workers:s.workers w_use (fun w i ->
      let stats = s.workers.(w) in
      let ctx = s.contexts.(w) in
      let buf = s.child_buffers.(w) in
      let t = Pending.get s.pending i in
      let selected = t.alive in
      if s.options.validate then begin
        let marks_ok = ref true in
        for k = 0 to t.n_locks - 1 do
          if not (Lock.holds t.neighborhood.(k) ~stamp t.id) then marks_ok := false
        done;
        if selected <> !marks_ok then
          failwith "Det_sched: defeat flags disagree with neighborhood marks"
      end;
      if selected then begin
        if t.pure then begin
          for k = 0 to t.n_pure_children - 1 do
            Child_buffer.push buf ~parent:t.id ~birth:k t.pure_children.(k)
          done;
          stats.pushes <- stats.pushes + t.n_pure_children;
          stats.work <- stats.work + t.task_work
        end
        else begin
          Context.reset ctx ~phase:Commit ~task_id:t.id ~stamp ~saved:t.saved;
          s.operator ctx t.item;
          stats.work <- stats.work + Context.work_units ctx;
          t.commit_work <- Context.work_units ctx;
          let n = Context.pushed_count ctx in
          for k = 0 to n - 1 do
            Child_buffer.push buf ~parent:t.id ~birth:k (Context.pushed_get ctx k)
          done;
          stats.pushes <- stats.pushes + n
        end;
        stats.committed <- stats.committed + 1
      end
      else stats.aborted <- stats.aborted + 1);
  let dt = Clock.elapsed_s t0 in
  s.select_s <- s.select_s +. dt;
  dt

let task_record t =
  {
    Schedule.acquires = t.n_locks;
    inspect_work = t.task_work;
    commit_work = t.commit_work;
    committed = t.alive;
    locks = Array.init t.n_locks (fun k -> Lock.id t.neighborhood.(k));
  }

(* The sequential glue after selectAndExec. *)
let end_round s ~w_use ~dt_select =
  let pending = s.pending and auditing = Option.is_some s.audit in
  (* One ascending pass over the window: digest folds of the committed
     ids, the audit's committed set, the executed work and the schedule
     record. [alive] still says which tasks were selected: defeat flags
     only change during inspect. The digest is folded on the field: a
     local ref would unbox it and re-box it for every committed id. *)
  let ids = if auditing then Array.make w_use 0 else [||] in
  let recs = ref [] in
  s.digest <- Trace_digest.fold_int s.digest w_use;
  let committed = ref 0 and exec_work = ref 0 in
  for i = 0 to w_use - 1 do
    let t = Pending.get pending i in
    if t.alive then begin
      s.digest <- Trace_digest.fold_int s.digest t.id;
      if auditing then ids.(!committed) <- t.id;
      incr committed;
      exec_work := !exec_work + if t.pure then t.task_work else t.commit_work
    end;
    if s.record then recs := task_record t :: !recs
  done;
  let committed = !committed in
  s.digest <- Trace_digest.fold_int s.digest committed;
  (* Dynamic determinism audit: drain the access tapes and check
     cautiousness / containment / round-level races against the
     committed set, before the pending deque is compacted. *)
  (match s.audit with
  | None -> ()
  | Some a ->
      let ids = Array.sub ids 0 committed in
      Array.sort compare ids;
      let fresh = Audit.end_round a ~round:s.rounds ~inspected:w_use ~committed:ids in
      if s.tracing then
        List.iter
          (fun (f : Audit.finding) ->
            emit s
              (Obs.Audit_finding
                 { round = f.round; rule = Audit.rule_name f.rule; task = f.task;
                   other = f.other; lid = f.lid }))
          fresh);
  let round_pushes = ref 0 in
  for w = 0 to Array.length s.child_buffers - 1 do
    round_pushes := !round_pushes + Child_buffer.length s.child_buffers.(w);
    Child_buffer.transfer ~into:s.todo s.child_buffers.(w)
  done;
  if s.tracing then begin
    emit s
      (Obs.Select_done { round = s.rounds; committed; defeated = w_use - committed });
    emit s (Obs.Phase_time { round = s.rounds; phase = Obs.Select; dt_s = dt_select });
    emit s
      (Obs.Execute_done { round = s.rounds; work = !exec_work; pushes = !round_pushes })
  end;
  if s.record then s.round_records <- Array.of_list (List.rev !recs) :: s.round_records;
  (* Failed tasks precede the untried remainder: they came from the
     window prefix, so the in-place compaction keeps the pending
     sequence in id order. *)
  let dropped =
    Pending.compact pending ~w_use ~keep:(fun i -> not (Pending.get pending i).alive)
  in
  assert (dropped = committed);
  (* Soft-priority run accounting: when the commits drained the current
     bucket run, open the next one — so every round boundary with
     pending tasks already has its run open, which is what lets a
     checkpoint carry just [b_delta]. *)
  (match Pending.note_dropped pending dropped with
  | None -> ()
  | Some bucket ->
      if s.tracing then emit s (Obs.Bucket_drained { round = s.rounds; bucket });
      open_run s);
  let old_w = s.window in
  s.window <-
    adapt_window ~target_ratio:s.options.target_ratio ~window:old_w ~committed ~w_use;
  if s.tracing && s.window <> old_w then
    emit s
      (Obs.Window_adapted
         { old_w; new_w = s.window; ratio = float_of_int committed /. float_of_int w_use })

(* --- round boundaries ---------------------------------------------- *)

(* The state a resume needs to replay round [s.rounds + 1] onward.
   Called from the sequential glue only, after [end_round] — [s.window]
   is the next round's window. *)
let capture s =
  let np = Pending.length s.pending and nt = Child_buffer.length s.todo in
  let c = Stats.total (Array.append s.workers [| s.carried |]) in
  {
    b_rounds = s.rounds;
    b_generations = s.generations;
    b_next_id = s.next_id;
    b_gen_base = s.gen_base;
    b_window = s.window;
    b_delta = (if np = 0 then 0 else s.delta);
    b_buckets = s.buckets;
    b_digest = s.digest;
    b_pending_ids = Array.init np (fun i -> (Pending.get s.pending i).id);
    b_pending_items = Array.init np (fun i -> (Pending.get s.pending i).item);
    b_todo_parents = Array.init nt (Child_buffer.parent s.todo);
    b_todo_births = Array.init nt (Child_buffer.birth s.todo);
    b_todo_items = Array.init nt (Child_buffer.item s.todo);
    b_commits = c.committed;
    b_aborts = c.aborted;
    b_acquired = c.acquires;
    b_work = c.work;
    b_created = c.pushes;
    b_inspected = c.inspections;
  }

let validate_boundary b =
  let bad what = invalid_arg ("Det_sched.run: resume boundary " ^ what) in
  if
    b.b_gen_base > b.b_next_id || b.b_rounds < 0 || b.b_generations < 0 || b.b_window < 0
    || b.b_buckets < 0
  then invalid_arg "Det_sched.run: inconsistent resume boundary";
  if b.b_delta < 0 then bad "has a negative delta";
  if Array.length b.b_pending_ids <> Array.length b.b_pending_items then
    bad "id/item arrays disagree";
  let nt = Array.length b.b_todo_items in
  if Array.length b.b_todo_parents <> nt || Array.length b.b_todo_births <> nt then
    bad "todo arrays disagree";
  if Array.exists (fun id -> id < b.b_gen_base || id >= b.b_next_id) b.b_pending_ids then
    bad "pending id out of generation";
  let ids = Array.copy b.b_pending_ids in
  Array.sort compare ids;
  for i = 1 to Array.length ids - 1 do
    if ids.(i) = ids.(i - 1) then bad (Printf.sprintf "repeats pending id %d" ids.(i))
  done

(* Seed a fresh state from a validated boundary: counters, carried
   worker counters, the child buffer and the current generation's
   pending suffix in captured deque order (spread-permuted, not id
   order). *)
let restore s b =
  validate_boundary b;
  s.rounds <- b.b_rounds;
  s.generations <- b.b_generations;
  s.next_id <- b.b_next_id;
  s.gen_base <- b.b_gen_base;
  s.window <- b.b_window;
  s.buckets <- b.b_buckets;
  s.digest <- b.b_digest;
  let c = s.carried in
  c.committed <- b.b_commits;
  c.aborted <- b.b_aborts;
  c.acquires <- b.b_acquired;
  c.work <- b.b_work;
  c.pushes <- b.b_created;
  c.inspections <- b.b_inspected;
  Array.iteri
    (fun i item ->
      Child_buffer.push s.todo ~parent:b.b_todo_parents.(i) ~birth:b.b_todo_births.(i) item)
    b.b_todo_items;
  let n = Array.length b.b_pending_items in
  if n > 0 then begin
    let generation =
      Array.init n (fun i -> make_task b.b_pending_ids.(i) b.b_pending_items.(i))
    in
    if b.b_delta > 0 then begin
      (* Soft-priority generation: the captured deque order is
         run-contiguous (windows never straddle runs), so grouping
         consecutive equal buckets reconstructs the run table. The
         current run was already opened (and digest-folded) before the
         boundary, so it is not re-opened here. *)
      let bucket i = bucket_of ~delta:b.b_delta (s.prio_of generation.(i).item) in
      Pending.load_runs s.pending generation (bucket_runs n bucket);
      s.delta <- b.b_delta
    end
    else Pending.load s.pending generation;
    ensure_slots s (s.next_id - s.gen_base) generation.(0)
  end;
  if s.tracing then
    emit s (Obs.Resumed { round = b.b_rounds; digest = Trace_digest.to_hex b.b_digest })

let run ~record ~sink ?audit ?checkpoint ?resume ?stop_after ~threads ?priority ~pool
    ~options ~static_id ~operator items =
  (match checkpoint with
  | Some (every, _) when every < 1 ->
      invalid_arg "Det_sched.run: checkpoint cadence must be >= 1"
  | _ -> ());
  (match stop_after with
  | Some r when r < 1 -> invalid_arg "Det_sched.run: stop_after round must be >= 1"
  | _ -> ());
  let s =
    create ~record ~sink ~audit ~threads ~priority ~pool ~options ~static_id ~operator
  in
  (match resume with
  | None ->
      Array.iteri (fun i item -> Child_buffer.push s.todo ~parent:0 ~birth:i item) items
  | Some b -> restore s b);
  let t0 = Clock.now_s () in
  (* One iteration per round. A generation boundary is just a round
     whose pending deque starts empty, so the event sequence and digest
     folds are those of nested generation/round loops — and a resume
     can re-enter mid-generation. *)
  let rec loop () =
    if Pending.length s.pending > 0 || Child_buffer.length s.todo > 0 then begin
      if Pending.length s.pending = 0 then next_generation s;
      let w_use = setup_window s in
      (* A fresh lock epoch per round: every mark the previous round
         left behind is stale — free by construction — for this round's
         claims, which is what lets selectAndExec skip releasing. *)
      let stamp = Lock.new_epoch () in
      inspect s ~stamp ~w_use;
      let dt_select = select s ~stamp ~w_use in
      end_round s ~w_use ~dt_select;
      (match checkpoint with
      | Some (every, f) when s.rounds mod every = 0 ->
          if s.tracing then
            emit s
              (Obs.Checkpoint_taken
                 { round = s.rounds; digest = Trace_digest.to_hex s.digest });
          f (capture s)
      | _ -> ());
      match stop_after with Some r when s.rounds >= r -> () | _ -> loop ()
    end
  in
  loop ();
  let time_s = Clock.elapsed_s t0 in
  let stats =
    Stats.finish ~digest:s.digest ~rounds:s.rounds ~generations:s.generations
      ~buckets:s.buckets ~carried:s.carried
      ~phases:(Stats.breakdown ~inspect_s:s.inspect_s ~select_s:s.select_s ~time_s)
      ~sink ~time_s s.session
  in
  (stats, if record then Some (Schedule.Rounds (List.rev s.round_records)) else None)
