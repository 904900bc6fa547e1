(* Attribute a traced run's time to DIG scheduler parts from the gaps
   between consecutive events. The sink stamps each event on the
   monotonic clock as it arrives; the scheduler emits events only from
   its sequential glue, so the gap that ends at an event is time spent
   on the way to that event:

   - ending at [Generation_begin]: forming the next generation (sorting
     the pending tasks, bucketing);
   - from [Execute_done] up to the next [Round_begin], or up to the end
     of the run: glue between rounds (compaction, window adaptation,
     round set-up), minus any generation formation inside it;
   - from [Round_begin] to [Execute_done], less the round's two
     [Phase_time]s: sequential work inside a round around the parallel
     phases (digest folding, child transfer, event emission).

   Inspect and select time comes from the [Phase_time] events. What the
   named parts leave of a run's time (set-up before the first round,
   teardown after the last) is unattributed. *)

type t = {
  generation_s : float;
  glue_s : float;
  round_glue_s : float;
  inspect_s : float;
  select_s : float;
  runs : (float * float) list;  (** [Run_begin], [Run_end] stamps, in order *)
  rounds : int;
  generations : int;
  buckets : int;
  committed : int;
  inspected : int;
}

(* A sink that keeps every event with its monotonic arrival time. *)
let recorder () =
  let events = ref [] in
  let sink =
    {
      Obs.emit = (fun s -> events := (Galois.Clock.now_s (), s.Obs.event) :: !events);
      close = ignore;
    }
  in
  (sink, fun () -> Array.of_list (List.rev !events))

let split events =
  let generation_s = ref 0.0 and glue_s = ref 0.0 in
  let round_glue_s = ref 0.0 and round_at = ref 0.0 and round_phases = ref 0.0 in
  let inspect_s = ref 0.0 and select_s = ref 0.0 in
  let rounds = ref 0 and generations = ref 0 and buckets = ref 0 in
  let committed = ref 0 and inspected = ref 0 in
  let runs = ref [] and run_start = ref None in
  let in_glue = ref false in
  let prev = ref None in
  Array.iter
    (fun (at, ev) ->
      let gap = match !prev with Some p -> at -. p | None -> 0.0 in
      prev := Some at;
      (match ev with
      | Obs.Generation_begin _ ->
          incr generations;
          generation_s := !generation_s +. gap;
          in_glue := true
      | Obs.Round_begin { window; _ } ->
          incr rounds;
          round_at := at;
          round_phases := 0.0;
          inspected := !inspected + window;
          if !in_glue then glue_s := !glue_s +. gap;
          in_glue := false
      | Obs.Bucket_drained _ | Obs.Window_adapted _ | Obs.Checkpoint_taken _ ->
          if !in_glue then glue_s := !glue_s +. gap
      | Obs.Worker_counters _ | Obs.Run_end _ ->
          if !in_glue then glue_s := !glue_s +. gap;
          in_glue := false
      | Obs.Execute_done _ ->
          round_glue_s := !round_glue_s +. (at -. !round_at -. !round_phases);
          in_glue := true
      | Obs.Select_done { committed = c; _ } -> committed := !committed + c
      | Obs.Phase_time { phase = Obs.Inspect; dt_s; _ } ->
          inspect_s := !inspect_s +. dt_s;
          round_phases := !round_phases +. dt_s
      | Obs.Phase_time { phase = Obs.Select; dt_s; _ } ->
          select_s := !select_s +. dt_s;
          round_phases := !round_phases +. dt_s
      | Obs.Bucket_opened _ -> incr buckets
      | _ -> ());
      match ev with
      | Obs.Run_begin _ ->
          run_start := Some at;
          in_glue := false
      | Obs.Run_end _ ->
          Option.iter (fun s -> runs := (s, at) :: !runs) !run_start;
          run_start := None
      | _ -> ())
    events;
  {
    generation_s = !generation_s;
    glue_s = !glue_s;
    round_glue_s = !round_glue_s;
    inspect_s = !inspect_s;
    select_s = !select_s;
    runs = List.rev !runs;
    rounds = !rounds;
    generations = !generations;
    buckets = !buckets;
    committed = !committed;
    inspected = !inspected;
  }

let run_time_s t = List.fold_left (fun acc (b, e) -> acc +. (e -. b)) 0.0 t.runs

(* What the named parts leave of [time_s]. *)
let unattributed_s t ~time_s =
  time_s -. (t.generation_s +. t.glue_s +. t.round_glue_s +. t.inspect_s +. t.select_s)
