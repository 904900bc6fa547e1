(* In-order sequential execution.

   Trivially deterministic; serves as the semantic reference that both
   parallel schedulers are tested against, and as the single-thread
   baseline of the evaluation. Observability events are emitted once at
   the end: there are no rounds, so the whole run is one Execute
   phase. *)

let run ~record ~sink ~operator items =
  let session = Stats.start ~threads:1 () in
  let stats = (Stats.workers session).(0) in
  let ctx = Context.create () in
  Context.set_stats ctx stats;
  let queue = Queue.create () in
  Array.iter (fun x -> Queue.add x queue) items;
  let records = ref [] in
  (* One lock epoch for the whole run; no pool, so spins/parks stay 0. *)
  let stamp = Lock.new_epoch () in
  let t0 = Clock.now_s () in
  while not (Queue.is_empty queue) do
    let item = Queue.pop queue in
    Context.reset ctx ~phase:Direct ~task_id:1 ~stamp ~saved:None;
    operator ctx item;
    (* No concurrency: Conflict cannot be raised, every task commits. *)
    let neighborhood = Context.neighborhood_count ctx in
    stats.atomic_updates <- stats.atomic_updates + neighborhood;
    if record then records := Context.attempt_record ctx ~committed:true :: !records;
    Context.release_all ctx;
    List.iter (fun c -> Queue.add c queue) (Context.pushed_list ctx);
    stats.pushes <- stats.pushes + Context.pushed_count ctx;
    stats.work <- stats.work + Context.work_units ctx;
    stats.committed <- stats.committed + 1
  done;
  let time_s = Clock.elapsed_s t0 in
  let stats = Stats.finish ~sink ~time_s session in
  let schedule = if record then Some (Schedule.Flat (List.rev !records)) else None in
  (stats, schedule)
