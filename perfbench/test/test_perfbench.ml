(* Tests for the benchmark's helpers: order statistics, the host-speed
   factor, the open-loop arithmetic and the sink-gap splitter. *)

module S = Perfbench_core.Summary
module Open_loop = Perfbench_core.Open_loop
module Gaps = Perfbench_core.Gaps
module Calib = Perfbench_core.Calib

let close = Alcotest.float 1e-9
let triple = Alcotest.(triple close close close)

(* Expected values are Python's statistics.quantiles(xs, n=4). *)
let test_median_quartiles () =
  Alcotest.check close "odd" 2.0 (S.median [ 3.0; 1.0; 2.0 ]);
  Alcotest.check close "even" 2.5 (S.median [ 4.0; 1.0; 3.0; 2.0 ]);
  Alcotest.check triple "1..10" (2.75, 5.5, 8.25)
    (S.quartiles (List.init 10 (fun i -> float_of_int (i + 1))));
  Alcotest.check triple "two points" (0.75, 1.5, 2.25) (S.quartiles [ 2.0; 1.0 ]);
  Alcotest.check triple "unsorted" (1.5, 3.0, 4.5) (S.quartiles [ 5.0; 1.0; 4.0; 2.0; 3.0 ]);
  Alcotest.check close "iqr share" ((4.5 -. 1.5) /. 3.0)
    (S.iqr_share [ 5.0; 1.0; 4.0; 2.0; 3.0 ])

let ints n = List.init n (fun i -> float_of_int (i + 1))

let test_percentile () =
  let ok = Alcotest.(result close string) in
  Alcotest.check ok "p95 of 200 has 10 beyond" (Ok 190.0) (S.percentile (ints 200) 95.0);
  Alcotest.check ok "p50 nearest rank" (Ok 2.0) (S.percentile (ints 3) 50.0);
  Alcotest.check ok "p99 of 1000" (Ok 990.0) (S.percentile (ints 1000) 99.0);
  let refused xs p =
    match S.percentile xs p with Ok _ -> false | Error _ -> true
  in
  Alcotest.(check bool) "p95 of 199 has 9 beyond" true (refused (ints 199) 95.0);
  Alcotest.(check bool) "p99 of 100" true (refused (ints 100) 99.0);
  Alcotest.(check bool) "no samples" true (refused [] 50.0)

let test_least_stolen () =
  let floats = Alcotest.(list close) in
  Alcotest.check floats "little steal keeps all" [ 1.0; 2.0; 3.0 ]
    (S.least_stolen [ (1.0, 0.0); (2.0, 0.005); (3.0, 0.01) ]);
  Alcotest.check floats "bursts above the median go" [ 1.0; 1.1; 1.2 ]
    (S.least_stolen [ (1.0, 0.05); (1.7, 0.2); (1.1, 0.06); (1.2, 0.02); (1.6, 0.15) ]);
  Alcotest.(check (list bool)) "kept flags, in order" [ true; false; true; true; false ]
    (S.kept [ (1.0, 0.05); (1.7, 0.2); (1.1, 0.06); (1.2, 0.02); (1.6, 0.15) ])

let test_calib () =
  let r = Calib.reference in
  Alcotest.check close "reference speed" 1.0 (Calib.factor_of r);
  Alcotest.check close "all twice as slow" 2.0 (Calib.factor_of (Array.map (( *. ) 2.0) r));
  Alcotest.check close "geometric mean" 2.0
    (Calib.factor_of [| r.(0) *. 4.0; r.(1) |]);
  let c = Calib.create () in
  Alcotest.(check bool) "search reaches most nodes" true (Calib.bfs c > Calib.nodes / 2);
  Calib.sample c;
  Calib.sample c;
  let f = Calib.factor c in
  Alcotest.(check bool) "sampled factor" true (Float.is_finite f && f > 0.0)

let test_open_loop_arithmetic () =
  Alcotest.check close "due" 11.5 (Open_loop.due ~start:10.0 ~rate:4.0 6);
  Alcotest.check close "lateness" 0.25 (Open_loop.lateness ~due:11.5 ~submitted:11.75);
  Alcotest.check close "latency from due" 0.75
    (Open_loop.latency ~due:11.5 ~submitted:11.75 ~service_s:0.5)

(* Simulated clock with arrivals 0.1 s apart and a fixed drain cost.
   Returns each query's (index, due time, submission time) and the
   number of drains. *)
let simulate ~count ~drain_s =
  let clock = ref 100.0 in
  let pending = ref 0 and submitted = ref [] and drains = ref 0 in
  let start =
    Open_loop.run ~rate:10.0 ~count
      ~now:(fun () -> !clock)
      ~sleep:(fun dt -> clock := !clock +. dt)
      ~submit:(fun i ~due ->
        submitted := (i, due, !clock) :: !submitted;
        incr pending)
      ~pending:(fun () -> !pending)
      ~drain:(fun () ->
        incr drains;
        pending := 0;
        clock := !clock +. drain_s)
  in
  Alcotest.check close "start" 100.0 start;
  let subs = List.rev !submitted in
  Alcotest.(check (list int)) "all in order" (List.init count Fun.id)
    (List.map (fun (i, _, _) -> i) subs);
  List.iter
    (fun (i, due, at) ->
      Alcotest.check close "due time" (Open_loop.due ~start ~rate:10.0 i) due;
      Alcotest.(check bool) "never early" true (at >= due -. 1e-9))
    subs;
  (List.map (fun (_, due, at) -> Open_loop.lateness ~due ~submitted:at) subs, !drains)

let test_open_loop_run () =
  (* A drain slower than the arrivals: the generator falls behind and
     each query is late by exactly the time the drains outlasted its
     due time. Query 0 runs at once; 1-3 wait for the first drain
     (until 100.33), 4-6 for the second (100.66), 7 for the third. *)
  let late, drains = simulate ~count:8 ~drain_s:0.33 in
  Alcotest.(check (list close)) "lateness behind"
    [ 0.0; 0.23; 0.13; 0.03; 0.26; 0.16; 0.06; 0.29 ]
    late;
  Alcotest.(check int) "drains behind" 4 drains;
  (* A fast drain: the loop sleeps to each due time, nothing is late. *)
  let late, drains = simulate ~count:5 ~drain_s:0.02 in
  Alcotest.(check (list close)) "lateness on time" [ 0.0; 0.0; 0.0; 0.0; 0.0 ] late;
  Alcotest.(check int) "one drain per query" 5 drains

(* On a tiny bfs, generation, glue and the two phase timers must account
   for the scheduler's own time. *)
let test_gaps_tiny_bfs () =
  let g = Graphlib.Generators.kout ~seed:7 ~n:2000 ~k:5 () in
  Galois.Pool.with_pool ~domains:2 (fun pool ->
      let policy = Galois.Policy.det 2 in
      ignore (Apps.Bfs.galois ~policy ~pool g ~source:0);
      let sink, events = Gaps.recorder () in
      let _, report = Apps.Bfs.galois ~sink ~policy ~pool g ~source:0 in
      let st = report.Galois.Runtime.stats in
      let split = Gaps.split (events ()) in
      Alcotest.(check int) "rounds" st.rounds split.rounds;
      Alcotest.(check int) "generations" st.generations split.generations;
      Alcotest.(check int) "commits" st.commits split.committed;
      Alcotest.(check int) "inspected" st.inspected split.inspected;
      Alcotest.(check int) "one run" 1 (List.length split.runs);
      let split =
        { split with inspect_s = st.phases.inspect_s; select_s = st.phases.select_s }
      in
      let named = st.time_s -. Gaps.unattributed_s split ~time_s:st.time_s in
      if Float.abs (named -. st.time_s) > 0.05 *. st.time_s then
        Alcotest.failf "named parts %.6f s vs Stats.time_s %.6f s" named st.time_s)

let () =
  Alcotest.run "perfbench"
    [
      ( "summary",
        [
          Alcotest.test_case "median and quartiles" `Quick test_median_quartiles;
          Alcotest.test_case "nearest-rank percentile" `Quick test_percentile;
          Alcotest.test_case "least-stolen samples" `Quick test_least_stolen;
        ] );
      ("calib", [ Alcotest.test_case "speed factor" `Quick test_calib ]);
      ( "open loop",
        [
          Alcotest.test_case "due, lateness, latency" `Quick test_open_loop_arithmetic;
          Alcotest.test_case "simulated clock" `Quick test_open_loop_run;
        ] );
      ("gaps", [ Alcotest.test_case "tiny bfs sums to time_s" `Quick test_gaps_tiny_bfs ]);
    ]
