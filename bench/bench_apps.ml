(* The application bench harness: BENCH_<app>.json emission and
   baseline comparison.

   For each app it does two passes over a freshly generated input:

   - a timing pass under det:T (T = --threads) measured on the
     monotonic clock, providing wall_s and the per-phase breakdown from
     [Stats.t.phases];

   - an allocation pass under det:1 bracketed by [Gc.full_major] +
     [Gc.quick_stat] deltas. With a single domain the OCaml 5 GC
     counters are exact for the whole pipeline, and determinism makes
     the det:1 schedule identical to the det:T one, so "minor words per
     committed task" measured here is the DIG scheduler's real per-task
     allocation bill.

   The two passes must agree on the schedule digest — a free
   determinism assertion on every bench run.

   Modes:
     bench_apps                          write BENCH_<app>.json to .
     bench_apps --out DIR                ... to DIR
     bench_apps --compare DIR            also diff against records in DIR
     bench_apps --scale tiny|small       input sizes (default small)
     bench_apps --threads T              timing-pass threads (default 4)
     bench_apps --apps bfs,sssp,...      subset (default the four apps,
                                         the soft-priority sssp_auto
                                         case and the serve service
                                         case)
     bench_apps --large                  also run the paper-scale tier
                                         (bfs_large / sssp_large on a
                                         million-vertex R-MAT graph)
     bench_apps --cachesim               replay a recorded bfs schedule
                                         against the boxed-8B and
                                         compact CSR layout models and
                                         print both cache summaries
     bench_apps --smoke                  tiny inputs, then re-load and
                                         validate every emitted file
                                         (JSON parses, phases sum to
                                         wall) — the @bench-smoke CI
                                         gate. *)

type app_case = {
  name : string;
  size : int;
  (* Soft-priority mode of both passes: Prio_off for the classic
     unordered cases, Prio_auto/Prio_delta for the ordered ones
     (sssp_auto). Feeds the det policy's options, so the emitted
     record's policy string carries it. *)
  priority : Galois.Policy.priority_mode;
  (* Build the input (timed into build_s) and return the closure that
     runs the Galois program under a policy on a shared pool, plus the
     off-heap bytes of the graph input (0 when there is none). A fresh
     prepare per pass: dmr mutates its mesh in place. *)
  prepare :
    seed:int -> size:int ->
    (pool:Galois.Pool.t -> Galois.Policy.t -> Galois.Runtime.report) * int;
}

let seed = 2014

(* A table app (Apps.Suite): [prepare] builds its seeded input and a
   fresh world, so both are timed into build_s, outside the passes. *)
let suite_case ?(priority = Galois.Policy.Prio_off) ?name app size =
  let prepare ~seed ~size =
    let (Apps.Suite.Input input) = (Apps.Suite.get app).load ~size ~seed in
    let w = input.fresh ~static_id:false in
    let exec ~pool policy =
      w.run |> Galois.Run.policy policy |> Galois.Run.pool pool |> Galois.Run.exec
    in
    (exec, Option.fold ~none:0 ~some:Graphlib.Csr.memory_bytes input.graph)
  in
  { name = Option.value name ~default:app; size; priority; prepare }

let cases ~tiny =
  let sz small t = if tiny then t else small in
  [
    suite_case "bfs" (sz 20_000 600);
    suite_case "sssp" (sz 10_000 500);
    (* The same weighted input as sssp, scheduled by tentative distance
       (prio=auto delta-stepping buckets). The pair is read through
       work_units/efficiency: ordering by distance commits the same
       distances with fewer wasted re-relaxations. *)
    suite_case "sssp" ~name:"sssp_auto" ~priority:Galois.Policy.Prio_auto (sz 10_000 500);
    suite_case "boruvka" (sz 1_000 400);
    suite_case "dmr" (sz 1_500 150);
  ]

(* The paper-scale tier (opt-in via --large): million-vertex R-MAT
   inputs streamed straight into the off-heap CSR. bfs_large runs on
   the unweighted scale-20 graph (2^20 nodes, 8·2^20 edges); sssp_large
   runs on a scale-18 graph with a weight plane attached, exercising
   the [Sssp.galois_weighted] path that reads weights from the plane.
   Sizes are the node counts, so the records slot into the same schema;
   distinct names give them their own BENCH_<app>.json baselines. *)
let large_cases =
  let rmat_case name ~scale ~weighted run =
    let prepare ~seed ~size =
      let g =
        Graphlib.Generators.rmat ~seed ~scale:(Apps.Suite.floor_log2 size) ~edge_factor:8 ()
      in
      let g =
        if weighted then Graphlib.Graph_io.attach_random_weights ~seed:(seed + 1) ~max_weight:100 g
        else g
      in
      ((fun ~pool policy -> snd (run ~pool ~policy g)), Graphlib.Csr.memory_bytes g)
    in
    { name; size = 1 lsl scale; priority = Galois.Policy.Prio_off; prepare }
  in
  [
    rmat_case "bfs_large" ~scale:20 ~weighted:false (fun ~pool ~policy g ->
        Apps.Bfs.galois ~pool ~policy g ~source:0);
    rmat_case "sssp_large" ~scale:18 ~weighted:true (fun ~pool ~policy g ->
        Apps.Sssp.galois_weighted ~pool ~policy g ~source:0);
  ]

let bench_case ~threads ~timing_pool ~alloc_pool { name; size; priority; prepare } =
  let det t =
    Galois.Policy.det ~options:(Galois.Policy.Det_options.make ~priority ()) t
  in
  (* Each app run gets its own lid namespace, so location ids in debug
     output are reproducible run-to-run. *)
  Galois.Lock.reset_lids ();
  (* Timing pass on the shared pool: the measured interval excludes
     domain spawn/teardown, which the persistent pools pay once for the
     whole bench session. *)
  let tb = Galois.Clock.now_s () in
  let exec, graph_bytes = prepare ~seed ~size in
  let build_s = Galois.Clock.elapsed_s tb in
  let timing_policy = det threads in
  let t0 = Galois.Clock.now_s () in
  let timing = exec ~pool:timing_pool timing_policy in
  let wall_s = Galois.Clock.elapsed_s t0 in
  (* Allocation pass: single domain, GC deltas around the run only. *)
  Galois.Lock.reset_lids ();
  let exec1, _ = prepare ~seed ~size in
  Gc.full_major ();
  let g0 = Gc.quick_stat () in
  let alloc = exec1 ~pool:alloc_pool (det 1) in
  let g1 = Gc.quick_stat () in
  let stats = timing.Galois.Runtime.stats in
  let astats = alloc.Galois.Runtime.stats in
  if not (Galois.Trace_digest.equal stats.digest astats.digest) then
    Fmt.failwith "%s: det:%d and det:1 disagree on the schedule digest (%a vs %a)"
      name threads Galois.Trace_digest.pp stats.digest Galois.Trace_digest.pp
      astats.digest;
  let minor_words = g1.Gc.minor_words -. g0.Gc.minor_words in
  {
    Analysis.Bench_record.app = name;
    policy = Galois.Policy.to_string timing_policy;
    size;
    seed;
    build_s;
    graph_bytes;
    wall_s;
    inspect_s = stats.phases.Galois.Stats.inspect_s;
    select_s = stats.phases.select_s;
    (* other_s absorbs builder overhead outside the scheduler proper so
       the three phases sum to the harness wall time. *)
    other_s = wall_s -. stats.phases.inspect_s -. stats.phases.select_s;
    commits = stats.commits;
    aborts = stats.aborts;
    rounds = stats.rounds;
    generations = stats.generations;
    work_units = stats.work_units;
    efficiency =
      Analysis.Bench_record.efficiency ~commits:stats.commits
        ~work_units:stats.work_units;
    minor_words;
    promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words;
    major_words = g1.Gc.major_words -. g0.Gc.major_words;
    minor_collections = g1.Gc.minor_collections - g0.Gc.minor_collections;
    major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
    minor_words_per_commit =
      Analysis.Bench_record.minor_words_per_commit ~minor_words
        ~commits:astats.commits;
    (* Sync-overhead metrics of the timing pass (report-only): round
       throughput, atomic mark updates per committed task, and the pool's
       spin/park split. *)
    rounds_per_s = Analysis.Bench_record.rounds_per_s ~rounds:stats.rounds ~wall_s;
    atomics_per_commit =
      Analysis.Bench_record.atomics_per_commit ~atomics:stats.atomics
        ~commits:stats.commits;
    spins = stats.spins;
    parks = stats.parks;
    queries_per_s = 0.0;
    p99_latency_s = 0.0;
    digest = Galois.Trace_digest.to_hex stats.digest;
  }

(* The service case: one persistent server per pass, a mixed bfs/sssp/cc
   workload submitted in fixed-size arrival batches. The timing pass
   (det:T on the shared timing pool) provides wall time, throughput and
   the p99 submit-to-completion latency; the allocation pass replays the
   identical submission sequence on the det:1 pool. The two service
   digests must agree — the same free determinism assertion the per-app
   passes make, lifted to the whole response stream. *)
let bench_serve ~threads ~timing_pool ~alloc_pool ~nodes ~requests ~batch =
  let run_pass ~pool ~threads =
    Galois.Lock.reset_lids ();
    let tb = Galois.Clock.now_s () in
    let catalog = Service.Catalog.synthetic ~seed ~nodes () in
    let build_s = Galois.Clock.elapsed_s tb in
    let graph_bytes = Service.Catalog.total_graph_bytes catalog in
    let queries = Detcheck.Service_case.queries ~seed ~nodes ~count:requests in
    let server = Service.Server.create ~threads ~catalog pool in
    let t0 = Galois.Clock.now_s () in
    List.iteri
      (fun i q ->
        (match Service.Server.submit server q with
        | `Accepted _ -> ()
        | `Rejected id -> Fmt.failwith "serve: job %d rejected" id);
        if (i + 1) mod batch = 0 then ignore (Service.Server.drain server))
      queries;
    ignore (Service.Server.drain server);
    let wall_s = Galois.Clock.elapsed_s t0 in
    (server, wall_s, build_s, graph_bytes)
  in
  let timing, wall_s, build_s, graph_bytes = run_pass ~pool:timing_pool ~threads in
  Gc.full_major ();
  let g0 = Gc.quick_stat () in
  let alloc, _, _, _ = run_pass ~pool:alloc_pool ~threads:1 in
  let g1 = Gc.quick_stat () in
  if
    not
      (Galois.Trace_digest.equal (Service.Server.digest timing)
         (Service.Server.digest alloc))
  then
    Fmt.failwith "serve: det:%d and det:1 disagree on the service digest (%a vs %a)"
      threads Galois.Trace_digest.pp (Service.Server.digest timing)
      Galois.Trace_digest.pp (Service.Server.digest alloc);
  let sum f =
    List.fold_left
      (fun acc (r : Service.Server.response) ->
        match r.outcome with
        | Service.Server.Done { commits; rounds; _ } -> acc + f commits rounds
        | _ -> acc)
      0
      (Service.Server.responses timing)
  in
  let commits = sum (fun c _ -> c) in
  let rounds = sum (fun _ r -> r) in
  let stats = Service.Server.stats timing in
  if stats.failed > 0 || stats.rejected > 0 then
    Fmt.failwith "serve: %d failed, %d rejected responses in a clean workload"
      stats.failed stats.rejected;
  let minor_words = g1.Gc.minor_words -. g0.Gc.minor_words in
  {
    Analysis.Bench_record.app = "serve";
    policy = Galois.Policy.to_string (Galois.Policy.det threads);
    size = nodes;
    seed;
    build_s;
    graph_bytes;
    wall_s;
    (* The server's wall time spans many runs plus admission bookkeeping;
       the per-phase split is not meaningful at this level, so everything
       is booked under other_s. *)
    inspect_s = 0.0;
    select_s = 0.0;
    other_s = wall_s;
    commits;
    aborts = 0;
    rounds;
    generations = 0;
    work_units = 0;
    efficiency = 0.0;
    minor_words;
    promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words;
    major_words = g1.Gc.major_words -. g0.Gc.major_words;
    minor_collections = g1.Gc.minor_collections - g0.Gc.minor_collections;
    major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
    minor_words_per_commit =
      Analysis.Bench_record.minor_words_per_commit ~minor_words ~commits;
    rounds_per_s = Analysis.Bench_record.rounds_per_s ~rounds ~wall_s;
    atomics_per_commit = 0.0;
    spins = 0;
    parks = 0;
    queries_per_s =
      (if wall_s <= 0.0 then 0.0 else float_of_int stats.completed /. wall_s);
    p99_latency_s = Service.Server.percentile_latency_s timing 99.0;
    digest = Galois.Trace_digest.to_hex (Service.Server.digest timing);
  }

let record_path dir app = Filename.concat dir (Printf.sprintf "BENCH_%s.json" app)

let validate_file path =
  match Analysis.Bench_record.load path with
  | Error msg -> Error msg
  | Ok r ->
      if not (Analysis.Bench_record.phases_consistent r) then
        Error
          (Printf.sprintf "%s: phases do not sum to wall time (%g + %g + %g <> %g)"
             path r.inspect_s r.select_s r.other_s r.wall_s)
      else if r.commits <= 0 then Error (Printf.sprintf "%s: no commits recorded" path)
      else if r.spins < 0 || r.parks < 0 then
        Error (Printf.sprintf "%s: negative sync counters (spins=%d parks=%d)" path r.spins r.parks)
      else if r.build_s < 0.0 || r.graph_bytes < 0 then
        Error
          (Printf.sprintf "%s: negative input metrics (build_s=%g graph_bytes=%d)"
             path r.build_s r.graph_bytes)
      else if
        (* rounds_per_s must be what the record's own rounds and wall
           time imply (same guard against a stale field as
           phases_consistent). *)
        Float.abs
          (r.rounds_per_s
          -. Analysis.Bench_record.rounds_per_s ~rounds:r.rounds ~wall_s:r.wall_s)
        > 1e-6 +. (1e-9 *. Float.abs r.rounds_per_s)
      then Error (Printf.sprintf "%s: rounds_per_s inconsistent with rounds/wall_s" path)
      else if
        (* efficiency is likewise derived: commits / work_units. *)
        Float.abs
          (r.efficiency
          -. Analysis.Bench_record.efficiency ~commits:r.commits
               ~work_units:r.work_units)
        > 1e-9
      then Error (Printf.sprintf "%s: efficiency inconsistent with commits/work_units" path)
      else if r.atomics_per_commit < 0.0 then
        Error (Printf.sprintf "%s: negative atomics_per_commit" path)
      else if r.queries_per_s < 0.0 || r.p99_latency_s < 0.0 then
        Error
          (Printf.sprintf "%s: negative service metrics (qps=%g p99=%g)" path
             r.queries_per_s r.p99_latency_s)
      else if r.app = "serve" && r.queries_per_s <= 0.0 then
        Error (Printf.sprintf "%s: serve record without throughput" path)
      else Ok r

let compare_against ~dir records =
  let ok = ref true in
  List.iter
    (fun (r : Analysis.Bench_record.t) ->
      let path = record_path dir r.app in
      match Analysis.Bench_record.load path with
      | Error msg -> Fmt.pr "@.%s: no baseline (%s)@." r.app msg
      | Ok baseline ->
          Fmt.pr "@.%s vs baseline %s:@." r.app path;
          List.iter
            (fun d -> Fmt.pr "  %a@." Analysis.Bench_record.pp_delta d)
            (Analysis.Bench_record.compare_to ~baseline r);
          let alloc =
            List.find
              (fun (d : Analysis.Bench_record.delta) ->
                d.metric = "minor_words_per_commit")
              (Analysis.Bench_record.compare_to ~baseline r)
          in
          Fmt.pr "  minor words/commit: %.1f -> %.1f (%s%.1f%%)@." alloc.baseline
            alloc.current
            (if alloc.change_pct <= 0.0 then "" else "+")
            alloc.change_pct;
          if alloc.change_pct > 10.0 then begin
            Fmt.pr "  REGRESSION: minor words/commit grew more than 10%%@.";
            ok := false
          end)
    records;
  !ok

let () =
  let out = ref "." and scale = ref "small" and threads = ref 4 in
  let apps = ref [ "bfs"; "sssp"; "sssp_auto"; "boruvka"; "dmr"; "serve" ] in
  let compare_dir = ref None and smoke = ref false in
  let large = ref false and cachesim = ref false in
  let rec parse = function
    | [] -> ()
    | "--out" :: d :: rest ->
        out := d;
        parse rest
    | "--scale" :: s :: rest ->
        scale := s;
        parse rest
    | "--threads" :: t :: rest ->
        threads := int_of_string t;
        parse rest
    | "--apps" :: a :: rest ->
        apps := String.split_on_char ',' a;
        parse rest
    | "--compare" :: d :: rest ->
        compare_dir := Some d;
        parse rest
    | "--large" :: rest ->
        large := true;
        parse rest
    | "--cachesim" :: rest ->
        cachesim := true;
        parse rest
    | "--smoke" :: rest ->
        smoke := true;
        scale := "tiny";
        parse rest
    | arg :: _ -> Fmt.failwith "bench_apps: unknown argument %S" arg
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !large then apps := !apps @ List.map (fun c -> c.name) large_cases;
  (* Keep first occurrences: --apps bfs_large --large must not run the
     case twice. *)
  apps :=
    List.rev
      (List.fold_left
         (fun acc a -> if List.mem a acc then acc else a :: acc)
         [] !apps);
  let tiny =
    match !scale with
    | "tiny" -> true
    | "small" -> false
    | s -> Fmt.failwith "bench_apps: unknown scale %S (tiny|small)" s
  in
  (try Unix.mkdir !out 0o755 with
  | Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  | Unix.Unix_error (e, _, _) ->
      Fmt.failwith "bench_apps: cannot create %s: %s" !out (Unix.error_message e));
  let serve_nodes = if tiny then 400 else 2_000 in
  let serve_requests = if tiny then 60 else 200 in
  let serve_batch = if tiny then 16 else 32 in
  let bench name =
    if name = "serve" then
      bench_serve ~threads:!threads ~nodes:serve_nodes ~requests:serve_requests
        ~batch:serve_batch
    else
      match List.find_opt (fun c -> c.name = name) (cases ~tiny @ large_cases) with
      | Some c -> bench_case ~threads:!threads c
      | None -> fun ~timing_pool:_ ~alloc_pool:_ -> Fmt.failwith "bench_apps: unknown app %S" name
  in
  (* Two persistent pools shared by every case and both passes: det:T
     timing runs and det:1 allocation runs. Spawned once here, so no
     per-repetition domain spawn/teardown pollutes the timings. *)
  let records =
    Galois.Pool.with_pool ~domains:!threads (fun timing_pool ->
        Galois.Pool.with_pool ~domains:1 (fun alloc_pool ->
            List.map
              (fun name ->
                Fmt.pr "bench %-8s det:%d ... @?" name !threads;
                let r = bench name ~timing_pool ~alloc_pool in
                Fmt.pr "wall=%.4fs commits=%d rounds=%d alloc/commit=%.1f@."
                  r.wall_s r.commits r.rounds r.minor_words_per_commit;
                Analysis.Bench_record.save (record_path !out r.app) r;
                r)
              !apps))
  in
  (* Layout validation: replay a *recorded* bfs schedule against the
     byte-accurate cache model of the old boxed 8B-per-entry substrate
     and of the compact plane's own width. Same access stream, same
     cache — the delta is purely what the narrower layout buys. *)
  if !cachesim then begin
    let n = if tiny then 2_000 else 20_000 in
    (* Re-base lock ids so the recorded lids are exactly the node ids
       the layout model maps onto plane addresses. *)
    Galois.Lock.reset_lids ();
    let (Apps.Suite.Input input) = (Apps.Suite.get "bfs").load ~size:n ~seed in
    let g = Option.get input.graph in
    let report =
      (input.fresh ~static_id:false).run
      |> Galois.Run.policy (Galois.Policy.det 1)
      |> Galois.Run.record |> Galois.Run.exec
    in
    match report.schedule with
    | None -> Fmt.failwith "bench_apps: --cachesim run recorded no schedule"
    | Some sched ->
        let boxed, compact = Cachesim.Layout.compare_layouts g sched in
        Fmt.pr "@.cachesim: recorded det bfs on kout n=%d (m=%d)@." n
          (Graphlib.Csr.edges g);
        Fmt.pr "  %a@." Cachesim.Layout.pp_summary boxed;
        Fmt.pr "  %a@." Cachesim.Layout.pp_summary compact;
        Fmt.pr "  hit-rate %+.4f, misses %d -> %d, lines %d -> %d@."
          (Cachesim.Layout.hit_rate compact -. Cachesim.Layout.hit_rate boxed)
          boxed.Cachesim.Layout.misses compact.Cachesim.Layout.misses
          boxed.Cachesim.Layout.lines_touched compact.Cachesim.Layout.lines_touched
  end;
  let failures = ref 0 in
  if !smoke then
    List.iter
      (fun (r : Analysis.Bench_record.t) ->
        match validate_file (record_path !out r.app) with
        | Ok loaded ->
            (* The loaded record must round-trip to the same JSON. *)
            if
              Analysis.Bench_record.to_json loaded
              <> Analysis.Bench_record.to_json r
            then begin
              Fmt.epr "%s: JSON round-trip mismatch@." r.app;
              incr failures
            end
            else Fmt.pr "validated %s@." (record_path !out r.app)
        | Error msg ->
            Fmt.epr "%s@." msg;
            incr failures)
      records;
  (match !compare_dir with
  | None -> ()
  | Some dir -> if not (compare_against ~dir records) then incr failures);
  if !failures > 0 then exit 1
