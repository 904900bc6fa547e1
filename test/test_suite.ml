(* The app table, entry by entry, at sizes small enough for every
   commit: each world's validity check passes under serial, nondet:2 and
   det:2 (and under static ids where the entry allows them); det:1 and
   det:2 agree on the schedule and output digests; and a run crashed at
   round 2 and resumed live reproduces the uninterrupted one. *)

module D = Galois.Trace_digest

let size (e : Apps.Suite.t) = if e.points then 60 else 200
let seed = 11

let check_entry (e : Apps.Suite.t) () =
  let (Apps.Suite.Input input) = e.load ~size:(size e) ~seed in
  Galois.Pool.with_pool ~domains:2 (fun pool ->
      let exec ?(static_id = false) policy =
        let w = input.fresh ~static_id in
        let report =
          w.run |> Galois.Run.policy policy |> Galois.Run.pool pool |> Galois.Run.exec
        in
        if not (w.valid ()) then
          Alcotest.failf "%s under %s%s: invalid output (%s)" e.name
            (Galois.Policy.to_string policy)
            (if static_id then " with static ids" else "")
            (w.summary ());
        (report.stats.digest, w.output ())
      in
      ignore (exec Galois.Policy.serial);
      ignore (exec (Galois.Policy.nondet 2));
      let sched1, out1 = exec (Galois.Policy.det 1) in
      let sched2, out2 = exec (Galois.Policy.det 2) in
      if not (D.equal sched1 sched2) then
        Alcotest.failf "%s: det:1 schedule %a <> det:2 %a" e.name D.pp sched1 D.pp sched2;
      if not (D.equal out1 out2) then Alcotest.failf "%s: det:1 and det:2 outputs differ" e.name;
      if e.static_id_capable then ignore (exec ~static_id:true (Galois.Policy.det 2));
      let full = input.fresh ~static_id:false and crash = input.fresh ~static_id:false in
      let det2 run = run |> Galois.Run.policy (Galois.Policy.det 2) |> Galois.Run.pool pool in
      let outcome = Replay.crash_resume ~at:2 ~full:(det2 full.run) ~crash:(det2 crash.run) () in
      if not (D.equal outcome.full.stats.digest outcome.resumed.stats.digest) then
        Alcotest.failf "%s: crash-resume at round 2 changed the schedule digest" e.name;
      if not (D.equal (full.output ()) (crash.output ())) then
        Alcotest.failf "%s: crash-resume at round 2 changed the output" e.name;
      if not (crash.valid ()) then Alcotest.failf "%s: resumed output invalid" e.name)

let test_lookup () =
  Alcotest.(check string) "mst names boruvka" "boruvka" (Apps.Suite.get "mst").name;
  Alcotest.(check bool) "unknown app" true (Option.is_none (Apps.Suite.find "nope"));
  Alcotest.(check string) "graph case name" "bfs(n=300,seed=7)"
    (Apps.Suite.case_name (Apps.Suite.get "bfs") ~size:300 ~seed:7);
  Alcotest.(check string) "point case name" "dmr(points=90,seed=7)"
    (Apps.Suite.case_name (Apps.Suite.get "dmr") ~size:90 ~seed:7)

let suite =
  Alcotest.test_case "lookup and case names" `Quick test_lookup
  :: List.map
       (fun (e : Apps.Suite.t) -> Alcotest.test_case e.name `Quick (check_entry e))
       Apps.Suite.all
