(* The repository benchmark: four seeded workloads on one Galois.Pool.

   perfbench --workload NAME|all --seed N --seconds S --trace 0|1

   Every layer is measured from outside the library: timed calls into
   public functions, the Stats.t each run returns, and (with --trace 1
   only) a bench-owned Obs sink that stamps each event on the monotonic
   clock. With --trace 0 the run reports the end-to-end metrics; with
   --trace 1 it repeats the untraced samples, then makes traced runs,
   and reports the per-layer metrics. End-to-end timings are divided by
   the host's speed factor, measured next to them (see Calib). Every
   output is checked against the serial reference, and every sample of
   a run must produce the same schedule (or service) digest. The last
   line of standard output is one JSON object; the exit code is 1 when
   any check failed. *)

module Csr = Graphlib.Csr
module S = Perfbench_core.Summary
module Gaps = Perfbench_core.Gaps
module Open_loop = Perfbench_core.Open_loop
module Calib = Perfbench_core.Calib
module D = Galois.Trace_digest

(* One core is left to the rest of the host. Each det round ends at a
   barrier, so a domain that loses its core stalls every other one: on
   a 2-core shared host, a neighbour taking 15% of the CPU slowed bfs at
   det:2 by 20% and left det:1 unchanged (det:1 was also the faster). *)
let host_cores = Domain.recommended_domain_count ()
let threads = max 1 (min 4 (host_cores - 1))

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

type metric = { name : string; unit_ : string; value : float; samples : float list }

let single name unit_ value = { name; unit_; value; samples = [ value ] }
let med name unit_ xs = { name; unit_; value = S.median xs; samples = xs }

type outcome = {
  metrics : metric list;
  attempted : int;
  failed : int;
}

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
            float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

let time f =
  let t0 = Galois.Clock.now_s () in
  let r = f () in
  (r, Galois.Clock.elapsed_s t0)

(* Steal and total CPU ticks of the host so far: the hypervisor's
   "steal" is CPU time it gave to other guests (/proc/stat). *)
let cpu_ticks () =
  match open_in "/proc/stat" with
  | exception Sys_error _ -> (0, 0)
  | ic -> (
      let line = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic) in
      match List.filter (( <> ) "") (String.split_on_char ' ' line) with
      | "cpu" :: fields when List.length fields >= 8 ->
          let v = List.filteri (fun i _ -> i < 8) (List.map int_of_string fields) in
          (List.nth v 7, List.fold_left ( + ) 0 v)
      | _ -> (0, 0))

(* [f]'s result, its wall time and the share of the host's CPU time
   stolen while it ran. *)
let time_stolen f =
  let s0, t0 = cpu_ticks () in
  let r, wall = time f in
  let s1, t1 = cpu_ticks () in
  (r, (wall, if t1 > t0 then float_of_int (s1 - s0) /. float_of_int (t1 - t0) else 0.0))

(* The run's speed factor, from the kernel samples taken next to the
   timed samples it keeps. *)
let host_speed samples calib =
  let kept = S.kept samples in
  let speed = Calib.factor ~kept calib in
  Printf.printf "  host steal: median %.1f%% of CPU time; %d of %d timed samples kept\n"
    (100.0 *. S.median (List.map snd samples))
    (List.length (S.least_stolen samples))
    (List.length samples);
  Printf.printf "  host speed: factor %.4f (kernel medians %s ms); raw wall median %.6f s\n" speed
    (String.concat " / "
       (Array.to_list
          (Array.map (fun m -> Printf.sprintf "%.3f" (m *. 1e3)) (Calib.medians ~kept calib))))
    (S.median (S.least_stolen samples));
  speed

(* Timings at the reference host speed (see Calib). *)
let at_reference speed xs = List.map (fun x -> x /. speed) xs

(* Time the host's speed, then collect the kernels' garbage. *)
let sample_speed calib =
  Calib.sample calib;
  Gc.full_major ()

(* Input building is timed at least five times and for at least two
   seconds (at most 50 times), each build preceded by a sample of the
   host's speed and dropped before the next. It runs after the
   high-water RSS has been read, so that the kernels' memory is not in
   it. Returns the build times and the speed factor of their samples. *)
let timed_setup build =
  let calib = Calib.create () in
  let t0 = Galois.Clock.now_s () in
  let rec go k acc =
    Gc.full_major ();
    sample_speed calib;
    let _, dt = time build in
    let acc = dt :: acc in
    if k >= 5 && (k >= 50 || Galois.Clock.elapsed_s t0 >= 2.0) then
      (List.rev acc, Calib.factor calib)
    else go (k + 1) acc
  in
  go 1 []

(* Round trip of an empty job through an SPMD pool of [min 4 nproc]
   domains: the benchmark's own pool may have a single domain, whose
   round trip is a plain call. *)
let pool_roundtrip_us () =
  Parallel.Domain_pool.with_pool (min 4 host_cores) (fun dp ->
      let xs =
        List.init 2000 (fun _ -> snd (time (fun () -> Parallel.Domain_pool.run dp ignore)))
      in
      S.median xs *. 1e6)

let per a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let gc_delta f =
  let g0 = Gc.quick_stat () in
  let r = f () in
  let g1 = Gc.quick_stat () in
  (r, g1.Gc.minor_words -. g0.Gc.minor_words, g1.Gc.promoted_words -. g0.Gc.promoted_words)

(* ------------------------------------------------------------------ *)
(* The three app workloads                                             *)
(* ------------------------------------------------------------------ *)

type prepared = {
  graph_bytes : int;
  det : Galois.Policy.t;
  call :
    ?sink:Obs.sink -> pool:Galois.Pool.t -> Galois.Policy.t ->
    Galois.Runtime.report * (unit -> (unit, string) result);
      (** one App.galois call, and the untimed check of its output *)
  serial : unit -> unit;
}

type app = { app_name : string; build : seed:int -> prepared }

let det_policy ?(priority = Galois.Policy.Prio_off) () =
  Galois.Policy.det ~options:(Galois.Policy.Det_options.make ~priority ()) threads

let bfs_rmat16 =
  let build ~seed =
    let g = Graphlib.Generators.rmat ~seed ~scale:16 ~edge_factor:8 () in
    let reference = lazy (Apps.Bfs.serial g ~source:0) in
    {
      graph_bytes = Csr.memory_bytes g;
      det = det_policy ();
      call =
        (fun ?sink ~pool policy ->
          let dist, report = Apps.Bfs.galois ?sink ~policy ~pool g ~source:0 in
          ( report,
            fun () ->
              if dist = Lazy.force reference then Ok ()
              else Error "distances differ from Bfs.serial" ));
      serial = (fun () -> ignore (Apps.Bfs.serial g ~source:0));
    }
  in
  { app_name = "bfs-rmat16"; build }

let boruvka_kout400 =
  let build ~seed =
    let g = Csr.symmetrize (Graphlib.Generators.kout ~seed ~n:400 ~k:4 ()) in
    let w = Graphlib.Graph_io.undirected_random_weights ~seed:(seed + 1) g in
    let reference = lazy (Apps.Boruvka.serial g w).Apps.Boruvka.total_weight in
    {
      graph_bytes = Csr.memory_bytes g;
      det = det_policy ();
      call =
        (fun ?sink ~pool policy ->
          let forest, report = Apps.Boruvka.galois ?sink ~policy ~pool g w in
          ( report,
            fun () ->
              if forest.Apps.Boruvka.total_weight <> Lazy.force reference then
                Error "forest weight differs from Boruvka.serial"
              else if not (Apps.Boruvka.validate g forest) then
                Error "forest is not a spanning forest"
              else Ok () ));
      serial = (fun () -> ignore (Apps.Boruvka.serial g w));
    }
  in
  { app_name = "boruvka-kout400"; build }

(* sssp-ordered solves four inputs per call. The auto bucket width is a
   discrete choice, so the work of one input moved by 13% between seeds
   (quartile distance over median, ten seeds); the sum of four moves by
   about half that. One call runs the four in turn; its report adds
   their Stats.t. *)
let sssp_inputs = 4

let sssp_ordered =
  let build ~seed =
    let input i =
      let s = 2 * ((seed * sssp_inputs) + i) in
      let g =
        Graphlib.Generators.kout ~seed:s ~n:20_000 ~k:5 ()
        |> Graphlib.Graph_io.attach_random_weights ~seed:(s + 1) ~max_weight:100
      in
      let weights = lazy (Option.get (Csr.weights_array g)) in
      (g, weights, lazy (Apps.Sssp.serial g (Lazy.force weights) ~source:0))
    in
    let inputs = List.init sssp_inputs input in
    {
      graph_bytes = List.fold_left (fun b (g, _, _) -> b + Csr.memory_bytes g) 0 inputs;
      det = det_policy ~priority:Galois.Policy.Prio_auto ();
      call =
        (fun ?sink ~pool policy ->
          let runs =
            List.map
              (fun (g, _, reference) ->
                let dist, report = Apps.Sssp.galois_weighted ?sink ~policy ~pool g ~source:0 in
                ((dist, reference), report))
              inputs
          in
          let stats =
            List.fold_left
              (fun acc (_, r) -> Galois.Stats.add acc r.Galois.Runtime.stats)
              (Galois.Stats.zero (Galois.Policy.threads policy))
              runs
          in
          ( { (snd (List.hd runs)) with Galois.Runtime.stats },
            fun () ->
              if List.for_all (fun ((dist, reference), _) -> dist = Lazy.force reference) runs
              then Ok ()
              else Error "distances differ from Sssp.serial" ));
      serial =
        (fun () ->
          List.iter
            (fun (g, weights, _) -> ignore (Apps.Sssp.serial g (Lazy.force weights) ~source:0))
            inputs);
    }
  in
  { app_name = "sssp-ordered"; build }

type tally = { mutable attempted : int; mutable failed : int; digest : D.t option ref }

let new_tally () = { attempted = 0; failed = 0; digest = ref None }

let fail tally name msg =
  tally.failed <- tally.failed + 1;
  Printf.eprintf "%s: %s\n%!" name msg

(* Every sample of a run must take the same schedule: [slot] holds the
   first sample's digest. *)
let same_digest tally slot name d =
  match !slot with
  | None -> slot := Some d
  | Some d0 ->
      if not (D.equal d0 d) then
        fail tally name
          (Printf.sprintf "schedule digest %s differs from the first sample's %s" (D.to_hex d)
             (D.to_hex d0))

(* One checked, timed call. Returns the (wall, stolen share) sample and
   the report of a call that did not raise. With [calib], the host's
   speed is sampled just before the call. *)
let checked_call tally app p ~pool ?calib ?sink policy =
  tally.attempted <- tally.attempted + 1;
  Galois.Lock.reset_lids ();
  (* Each call starts from the same, collected heap, so no sample pays
     for its predecessor's garbage, nor for the kernels'. *)
  Gc.full_major ();
  Option.iter sample_speed calib;
  match time_stolen (fun () -> p.call ?sink ~pool policy) with
  | exception e ->
      fail tally app.app_name ("raised " ^ Printexc.to_string e);
      None
  | (report, check), sample ->
      (match check () with Ok () -> () | Error msg -> fail tally app.app_name msg);
      if Galois.Policy.is_deterministic policy then
        same_digest tally tally.digest app.app_name report.Galois.Runtime.stats.Galois.Stats.digest;
      Some (sample, report)

(* Untraced warm calls until [seconds] have passed (at least two). *)
let untraced_samples tally app p ~pool ~calib ~seconds =
  let t0 = Galois.Clock.now_s () in
  let rec go acc =
    if List.length acc >= 2 && Galois.Clock.elapsed_s t0 >= seconds then List.rev acc
    else
      match checked_call tally app p ~pool ~calib p.det with
      | None -> List.rev acc
      | Some s -> go (s :: acc)
  in
  go []

let app_end_to_end ~setup:(setup, setup_speed) ~rss ~speed samples =
  let walls = at_reference speed (S.least_stolen samples) in
  [
    med "wall_s" "s" walls;
    med "setup_s" "s" (at_reference setup_speed setup);
    single "peak_rss_mb" "MiB" rss;
    single "queries_per_s" "1/s" (1.0 /. S.median walls);
  ]

let no_service =
  [
    single "service.submit_us" "us" 0.0;
    single "service.drain_s" "s" 0.0;
    single "service.batch_mean" "jobs" 0.0;
    single "service.queue_wait_p50_s" "s" 0.0;
    single "service.run_p50_s" "s" 0.0;
    single "service.overhead_s" "s" 0.0;
    single "service.late_p95_s" "s" 0.0;
  ]

let run_app app ~pool ~seed ~seconds ~trace =
  let tally = new_tally () in
  let p = app.build ~seed in
  (* Warm the pool, the code and the heap on the real input. The
     high-water RSS is read after it: one input and one solve, as a
     user's process would hold. *)
  ignore (checked_call tally app p ~pool p.det);
  let rss = peak_rss_mb () in
  let setup = timed_setup (fun () -> app.build ~seed) in
  let calib = Calib.create () in
  let samples = List.map fst (untraced_samples tally app p ~pool ~calib ~seconds) in
  let speed = if samples = [] then 1.0 else host_speed samples calib in
  let metrics =
    (* A call that raised ended the sampling; it is counted as failed. *)
    if samples = [] then []
    else if not trace then app_end_to_end ~setup ~rss ~speed samples
    else begin
      let untraced_wall = S.median (S.least_stolen samples) in
      let (wall, stats), minor, promoted =
        gc_delta (fun () ->
            match checked_call tally app p ~pool p.det with
            | Some ((w, _), r) -> (w, r.Galois.Runtime.stats)
            | None -> (nan, Galois.Stats.zero threads))
      in
      (* Three traced calls: the overhead of tracing compares their
         median wall with the untraced median; the split is read off
         the last one. Inspect and select come from that call's own
         phase timers, generation and glue from the gaps in its trace. *)
      let traced_call () =
        let sink, events = Gaps.recorder () in
        match checked_call tally app p ~pool ~sink p.det with
        | Some ((w, _), r) -> (w, r.Galois.Runtime.stats, Gaps.split (events ()))
        | None -> (nan, Galois.Stats.zero threads, Gaps.split [||])
      in
      let traced_calls = List.init 3 (fun _ -> traced_call ()) in
      let traced_wall, traced, gaps = List.nth traced_calls 2 in
      let traced_median = S.median (List.map (fun (w, _, _) -> w) traced_calls) in
      let split =
        { gaps with Gaps.inspect_s = traced.phases.inspect_s; select_s = traced.phases.select_s }
      in
      let unattributed = Gaps.unattributed_s split ~time_s:traced.time_s in
      let traced_wrapper = traced_wall -. traced.time_s in
      Printf.printf
        "  split: generation %.4f + inspect %.4f + select %.4f + glue %.4f + round glue %.4f \
         + wrapper %.4f = %.1f%% of traced call wall %.4f s\n"
        split.generation_s split.inspect_s split.select_s split.glue_s split.round_glue_s
        traced_wrapper
        (100.0 *. (traced_wall -. unattributed) /. traced_wall)
        traced_wall;
      let (), serial_s = time p.serial in
      let nondet_wall =
        match checked_call tally app p ~pool (Galois.Policy.nondet threads) with
        | Some ((w, _), _) -> w
        | None -> nan
      in
      let st = stats in
      [
        single "graph.build_s" "s" (S.median (fst setup));
        single "graph.bytes" "bytes" (float_of_int p.graph_bytes);
        single "apps.wrapper_s" "s" (wall -. st.time_s);
        single "apps.serial_s" "s" serial_s;
        single "nondet_sched.wall_s" "s" nondet_wall;
        single "det_sched.generation_s" "s" split.generation_s;
        single "det_sched.inspect_s" "s" split.inspect_s;
        single "det_sched.select_s" "s" split.select_s;
        single "det_sched.glue_s" "s" split.glue_s;
        single "det_sched.round_glue_s" "s" split.round_glue_s;
        single "det_sched.unattributed_s" "s" unattributed;
        single "det_sched.rounds" "count" (float_of_int st.rounds);
        single "det_sched.generations" "count" (float_of_int st.generations);
        single "det_sched.buckets" "count" (float_of_int st.buckets);
        single "det_sched.round_us" "us" (st.time_s /. float_of_int (max 1 st.rounds) *. 1e6);
        single "det_sched.window_mean" "tasks" (per st.inspected st.rounds);
        single "det_sched.commit_ratio" "ratio" (per st.commits st.inspected);
        single "lock.acquires_per_task" "count" (per st.acquired st.inspected);
        single "lock.atomics_per_commit" "count" (per st.atomics st.commits);
        single "domain_pool.roundtrip_us" "us" (pool_roundtrip_us ());
        single "domain_pool.spins" "count" (float_of_int st.spins);
        single "domain_pool.parks" "count" (float_of_int st.parks);
        single "gc.minor_words_per_task" "words" (minor /. float_of_int (max 1 st.commits));
        single "gc.promoted_words" "words" promoted;
      ]
      @ no_service
      @ [ single "obs.trace_overhead" "ratio" ((traced_median /. untraced_wall) -. 1.0) ]
    end
  in
  { metrics; attempted = tally.attempted; failed = tally.failed }

(* ------------------------------------------------------------------ *)
(* serve-mixed                                                         *)
(* ------------------------------------------------------------------ *)

let serve_nodes = 2000
let batch = 32

(* The closed loop passes over sixteen batches: the seed draws the mix
   of bfs, sssp and cc queries, and more batches leave the median batch
   less dependent on that draw. *)
let closed_queries = 16 * batch

(* The open loop offers the first seven: enough samples for a p95 with
   ten beyond it. *)
let open_queries = 7 * batch

(* Offered open-loop rate: a fixed rate, so that a change in capacity
   shows as a change in latency. About a fifth of the closed-loop
   capacity measured at det:1 on a 2-core host when this workload was
   defined (about 140 queries/s). That host slows down threefold for
   minutes at a time; at half of capacity such a phase saturated the
   loop and multiplied the median latency. *)
let open_rate = 30.0

(* The open loop's offered duration; the closed loop has the rest of
   the run, and at least half of it. *)
let open_seconds = float_of_int open_queries /. open_rate

let digest_ints arr = Array.fold_left D.fold_int D.seed arr

let reference_digest catalog =
  let memo = Hashtbl.create 64 in
  fun (q : Service.Query.t) ->
    let key = Service.Query.to_string q in
    match Hashtbl.find_opt memo key with
    | Some d -> d
    | None ->
        let entry = Option.get (Service.Catalog.find catalog (Service.Query.graph q)) in
        let g = entry.Service.Catalog.graph in
        let d =
          match q with
          | Service.Query.Bfs { source; _ } -> digest_ints (Apps.Bfs.serial g ~source)
          | Service.Query.Sssp { source; _ } ->
              digest_ints
                (Apps.Sssp.serial g (Option.get entry.Service.Catalog.weights) ~source)
          | Service.Query.Cc _ -> digest_ints (Apps.Cc.serial g)
        in
        Hashtbl.replace memo key d;
        d

let check_response tally reference (r : Service.Server.response) =
  match r.outcome with
  | Service.Server.Done { output_digest; _ } ->
      if not (D.equal output_digest (reference r.query)) then
        fail tally "serve-mixed"
          (Printf.sprintf "job %d (%s): output differs from the serial reference" r.job
             (Service.Query.to_string r.query))
  | Service.Server.Rejected { reason } | Service.Server.Failed { reason } ->
      fail tally "serve-mixed"
        (Printf.sprintf "job %d (%s): %s" r.job (Service.Query.to_string r.query) reason)

(* A rejection is recorded at submit and never returned by a drain. *)
let rejected tally = function
  | `Accepted _ -> ()
  | `Rejected id -> fail tally "serve-mixed" (Printf.sprintf "job %d rejected" id)

(* One closed-loop pass over the query list on a fresh server: submit a
   batch of 32, drain, repeat. Returns the batch walls with the CPU
   share stolen during each, the submit times and the drain walls. *)
let closed_pass tally reference ~pool ~catalog ?calib ?sink queries =
  let server = Service.Server.create ?sink ~catalog pool in
  let batches = ref [] and submits = ref [] and drains = ref [] in
  let rec go = function
    | [] -> ()
    | qs ->
        Option.iter sample_speed calib;
        let s0, c0 = cpu_ticks () in
        let t0 = Galois.Clock.now_s () in
        let rest = ref qs in
        for _ = 1 to batch do
          match !rest with
          | [] -> ()
          | q :: tl ->
              rest := tl;
              tally.attempted <- tally.attempted + 1;
              let accepted, dt = time (fun () -> Service.Server.submit server q) in
              submits := dt :: !submits;
              rejected tally accepted
        done;
        let responses, dt = time (fun () -> Service.Server.drain server) in
        let wall = Galois.Clock.elapsed_s t0 in
        let s1, c1 = cpu_ticks () in
        let stolen = if c1 > c0 then float_of_int (s1 - s0) /. float_of_int (c1 - c0) else 0.0 in
        batches := (wall, stolen) :: !batches;
        drains := dt :: !drains;
        List.iter (check_response tally reference) responses;
        go !rest
  in
  go queries;
  (server, List.rev !batches, List.rev !submits, List.rev !drains)

type open_result = {
  latencies : float list;
  lateness : float list;
  dues : float array;
  drains_open : int;
  server_open : Service.Server.t;
}

let open_loop tally reference ~pool ~catalog ?sink queries =
  let server = Service.Server.create ?sink ~catalog pool in
  let qs = Array.of_list queries in
  let n = Array.length qs in
  let dues = Array.make n 0.0 and submitted = Array.make n 0.0 in
  let latencies = ref [] and drains = ref 0 in
  let submit i ~due =
    tally.attempted <- tally.attempted + 1;
    let t = Galois.Clock.now_s () in
    dues.(i) <- due;
    submitted.(i) <- t;
    rejected tally (Service.Server.submit server qs.(i))
  in
  let drain () =
    incr drains;
    List.iter
      (fun (r : Service.Server.response) ->
        check_response tally reference r;
        latencies :=
          Open_loop.latency ~due:dues.(r.job) ~submitted:submitted.(r.job)
            ~service_s:r.latency_s
          :: !latencies)
      (Service.Server.drain server)
  in
  ignore
    (Open_loop.run ~rate:open_rate ~count:n ~now:Galois.Clock.now_s ~sleep:Unix.sleepf ~submit
       ~pending:(fun () -> Service.Server.pending server)
       ~drain);
  {
    latencies = !latencies;
    lateness =
      List.init n (fun i -> Open_loop.lateness ~due:dues.(i) ~submitted:submitted.(i));
    dues;
    drains_open = !drains;
    server_open = server;
  }

let run_serve ~pool ~seed ~seconds ~trace =
  let tally = new_tally () in
  let catalog = Service.Catalog.synthetic ~seed ~nodes:serve_nodes () in
  let queries = Detcheck.Service_case.queries ~seed ~nodes:serve_nodes ~count:closed_queries in
  let open_list = List.filteri (fun i _ -> i < open_queries) queries in
  let reference = reference_digest catalog in
  List.iter (fun q -> ignore (reference q)) queries;
  (* Closed-loop passes run the whole list, open-loop passes its first
     part: each kind must match its own first digest. *)
  let open_digest = ref None in
  let same_service slot server =
    same_digest tally slot "serve-mixed" (Service.Server.digest server)
  in
  (* Warm-up batch on a throwaway server. *)
  ignore
    (closed_pass (new_tally ()) reference ~pool ~catalog (List.filteri (fun i _ -> i < batch) queries));
  (* One catalog and one server's batch, as a serving process holds. *)
  let rss = peak_rss_mb () in
  let setup = timed_setup (fun () -> Service.Catalog.synthetic ~seed ~nodes:serve_nodes ()) in
  (* Closed loop: whole passes over the query list for the run less the
     open loop. *)
  let calib = Calib.create () in
  let closed_seconds = Float.max (seconds /. 2.0) (seconds -. open_seconds) in
  let t0 = Galois.Clock.now_s () in
  let rec passes acc =
    if acc <> [] && Galois.Clock.elapsed_s t0 >= closed_seconds then List.rev acc
    else begin
      let server, walls, _, _ = closed_pass tally reference ~pool ~catalog ~calib queries in
      same_service tally.digest server;
      passes (walls :: acc)
    end
  in
  let batches = List.concat (passes []) in
  let speed = host_speed batches calib in
  let walls = S.least_stolen batches in
  let metrics =
    if not trace then
      let open_untraced = open_loop tally reference ~pool ~catalog open_list in
      same_service open_digest open_untraced.server_open;
      (* Open-loop latency is reported, not bounded: its median sits at
         the boundary between the bfs queries (half the mix) and the
         slower sssp and cc ones, so it moved 20-46% between seeds. *)
      let lat = open_untraced.latencies in
      Printf.printf "  open-loop latency, due time to completion: p50 %.6f s (n=%d)" (S.median lat)
        (List.length lat);
      (match S.percentile lat 95.0 with
      | Ok v -> Printf.printf ", p95 %.6f s\n" v
      | Error why -> Printf.printf ", p95 refused: %s\n" why);
      [
        med "wall_s" "s" (at_reference speed walls);
        med "setup_s" "s" (at_reference (snd setup) (fst setup));
        single "peak_rss_mb" "MiB" rss;
        single "queries_per_s" "1/s" (float_of_int batch /. S.median (at_reference speed walls));
      ]
    else begin
      let untraced_batch = S.median walls in
      let (_, _, _, _), minor, promoted =
        gc_delta (fun () -> closed_pass tally reference ~pool ~catalog queries)
      in
      let sink, events = Gaps.recorder () in
      let server, traced_walls, submits, drains =
        closed_pass tally reference ~pool ~catalog ~sink queries
      in
      same_service tally.digest server;
      let evs = events () in
      let gaps = Gaps.split evs in
      let jobs = List.length gaps.Gaps.runs in
      let run_total = Gaps.run_time_s gaps in
      let drain_total = List.fold_left ( +. ) 0.0 drains in
      let acquires = ref 0 and atomics = ref 0 and spins = ref 0 and parks = ref 0 in
      Array.iter
        (fun (_, ev) ->
          match ev with
          | Obs.Worker_counters c ->
              acquires := !acquires + c.acquires;
              atomics := !atomics + c.atomics;
              spins := !spins + c.spins;
              parks := !parks + c.parks
          | _ -> ())
        evs;
      (* Open loop again, traced: queue wait runs from a query's due time
         to its run's Run_begin stamp. Jobs run in id order, one run
         each, so the k-th run is job k. *)
      let osink, oevents = Gaps.recorder () in
      let opened = open_loop tally reference ~pool ~catalog ~sink:osink open_list in
      same_service open_digest opened.server_open;
      let oruns = (Gaps.split (oevents ())).Gaps.runs in
      let waits = List.mapi (fun k (b, _) -> b -. opened.dues.(k)) oruns in
      let run_spans = List.map (fun (b, e) -> e -. b) oruns in
      (* Serial reference and nondet:T on the first batch's queries. *)
      let first = List.filteri (fun i _ -> i < batch) queries in
      let per_query f =
        let (), dt = time (fun () -> List.iter f first) in
        dt /. float_of_int (List.length first)
      in
      let graph name = Option.get (Service.Catalog.find catalog name) in
      let serial_s =
        per_query (fun q ->
            let e = graph (Service.Query.graph q) in
            let g = e.Service.Catalog.graph in
            match q with
            | Service.Query.Bfs { source; _ } -> ignore (Apps.Bfs.serial g ~source)
            | Service.Query.Sssp { source; _ } ->
                ignore (Apps.Sssp.serial g (Option.get e.Service.Catalog.weights) ~source)
            | Service.Query.Cc _ -> ignore (Apps.Cc.serial g))
      in
      let nondet = Galois.Policy.nondet threads in
      let nondet_s =
        per_query (fun q ->
            let e = graph (Service.Query.graph q) in
            let g = e.Service.Catalog.graph in
            tally.attempted <- tally.attempted + 1;
            let out =
              match q with
              | Service.Query.Bfs { source; _ } ->
                  fst (Apps.Bfs.galois ~policy:nondet ~pool g ~source)
              | Service.Query.Sssp { source; _ } ->
                  fst
                    (Apps.Sssp.galois ~policy:nondet ~pool g
                       (Option.get e.Service.Catalog.weights) ~source)
              | Service.Query.Cc _ -> fst (Apps.Cc.galois ~policy:nondet ~pool g)
            in
            if not (D.equal (digest_ints out) (reference q)) then
              fail tally "serve-mixed" "nondet output differs from the serial reference")
      in
      let named_total = run_total -. Gaps.unattributed_s gaps ~time_s:run_total in
      let overhead = drain_total -. run_total in
      Printf.printf
        "  split: generation %.4f + inspect %.4f + select %.4f + glue %.4f + round glue %.4f \
         + wrapper %.4f = %.1f%% of drain wall %.4f s\n"
        gaps.generation_s gaps.inspect_s gaps.select_s gaps.glue_s gaps.round_glue_s overhead
        (100.0 *. (named_total +. overhead) /. drain_total)
        drain_total;
      let lat_p95 =
        match S.percentile opened.lateness 95.0 with Ok v -> v | Error _ -> nan
      in
      [
        single "graph.build_s" "s" (S.median (fst setup));
        single "graph.bytes" "bytes" (float_of_int (Service.Catalog.total_graph_bytes catalog));
        single "apps.wrapper_s" "s" (overhead /. float_of_int (max 1 jobs));
        single "apps.serial_s" "s" serial_s;
        single "nondet_sched.wall_s" "s" nondet_s;
        single "det_sched.generation_s" "s" gaps.generation_s;
        single "det_sched.inspect_s" "s" gaps.inspect_s;
        single "det_sched.select_s" "s" gaps.select_s;
        single "det_sched.glue_s" "s" gaps.glue_s;
        single "det_sched.round_glue_s" "s" gaps.round_glue_s;
        single "det_sched.unattributed_s" "s" (run_total -. named_total);
        single "det_sched.rounds" "count" (float_of_int gaps.rounds);
        single "det_sched.generations" "count" (float_of_int gaps.generations);
        single "det_sched.buckets" "count" (float_of_int gaps.buckets);
        single "det_sched.round_us" "us" (run_total /. float_of_int (max 1 gaps.rounds) *. 1e6);
        single "det_sched.window_mean" "tasks" (per gaps.inspected gaps.rounds);
        single "det_sched.commit_ratio" "ratio" (per gaps.committed gaps.inspected);
        single "lock.acquires_per_task" "count" (per !acquires gaps.inspected);
        single "lock.atomics_per_commit" "count" (per !atomics gaps.committed);
        single "domain_pool.roundtrip_us" "us" (pool_roundtrip_us ());
        single "domain_pool.spins" "count" (float_of_int !spins);
        single "domain_pool.parks" "count" (float_of_int !parks);
        single "gc.minor_words_per_task" "words" (minor /. float_of_int (max 1 gaps.committed));
        single "gc.promoted_words" "words" promoted;
        med "service.submit_us" "us" (List.map (fun s -> s *. 1e6) submits);
        med "service.drain_s" "s" drains;
        single "service.batch_mean" "jobs"
          (float_of_int open_queries /. float_of_int (max 1 opened.drains_open));
        med "service.queue_wait_p50_s" "s" waits;
        med "service.run_p50_s" "s" run_spans;
        single "service.overhead_s" "s" (overhead /. float_of_int (max 1 (List.length drains)));
        single "service.late_p95_s" "s" lat_p95;
        single "obs.trace_overhead" "ratio"
          ((S.median (List.map fst traced_walls) /. untraced_batch) -. 1.0);
      ]
    end
  in
  { metrics; attempted = tally.attempted; failed = tally.failed }

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let workloads =
  [ "bfs-rmat16"; "boruvka-kout400"; "sssp-ordered"; "serve-mixed" ]

let run_workload name ~pool ~seed ~seconds ~trace =
  match name with
  | "bfs-rmat16" -> run_app bfs_rmat16 ~pool ~seed ~seconds ~trace
  | "boruvka-kout400" -> run_app boruvka_kout400 ~pool ~seed ~seconds ~trace
  | "sssp-ordered" -> run_app sssp_ordered ~pool ~seed ~seconds ~trace
  | "serve-mixed" -> run_serve ~pool ~seed ~seconds ~trace
  | _ -> invalid_arg name

let json_float v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let usage () =
  prerr_endline
    "usage: perfbench --workload bfs-rmat16|boruvka-kout400|sssp-ordered|serve-mixed|all \
     --seed N --seconds S --trace 0|1";
  exit 2

let () =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest when w = "all" || List.mem w workloads ->
        workload := Some w;
        parse rest
    | "--seed" :: s :: rest when int_of_string_opt s <> None ->
        seed := int_of_string_opt s;
        parse rest
    | "--seconds" :: s :: rest when Option.fold ~none:false ~some:(fun x -> x > 0.0) (float_of_string_opt s) ->
        seconds := float_of_string_opt s;
        parse rest
    | "--trace" :: (("0" | "1") as t) :: rest ->
        trace := Some (t = "1");
        parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some workload, Some seed, Some seconds, Some trace ->
      let names = if workload = "all" then workloads else [ workload ] in
      Printf.printf "perfbench: host_cores=%d threads=%d ocaml=%s seed=%d seconds=%g trace=%b\n%!"
        host_cores threads Sys.ocaml_version seed seconds trace;
      let results =
        Galois.Pool.with_pool ~domains:threads (fun pool ->
            List.map
              (fun name ->
                let r = run_workload name ~pool ~seed ~seconds ~trace in
                Printf.printf "%s: attempted=%d failed=%d failed_share=%g\n" name r.attempted
                  r.failed
                  (float_of_int r.failed /. float_of_int (max 1 r.attempted));
                List.iter
                  (fun m ->
                    let n = List.length m.samples in
                    Printf.printf "  %-28s %.6g %s (n=%d%s)\n" m.name m.value m.unit_ n
                      (if n < 2 then ""
                       else
                         Printf.sprintf ", iqr %.1f%% of median%s" (100.0 *. S.iqr_share m.samples)
                           (if n > 12 then ""
                            else
                              ": " ^ String.concat " " (List.map (Printf.sprintf "%.4g") m.samples))))
                  r.metrics;
                flush stdout;
                (name, r))
              names)
      in
      let attempted = List.fold_left (fun a (_, (r : outcome)) -> a + r.attempted) 0 results in
      let failed = List.fold_left (fun a (_, (r : outcome)) -> a + r.failed) 0 results in
      let metrics =
        List.concat_map
          (fun (name, r) ->
            List.map
              (fun m ->
                let key = if List.length results > 1 then name ^ "/" ^ m.name else m.name in
                Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" key (json_float m.value)
                  m.unit_)
              r.metrics)
          results
      in
      Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
        (failed = 0) attempted failed (String.concat ", " metrics);
      if failed > 0 then exit 1
  | _ -> usage ()
