(* How fast the host runs, measured by two fixed kernels owned by the
   benchmark and timed next to the samples of a run.

   On a shared host the same call can take twice as long for minutes at
   a time, with no CPU time stolen: neighbours load the caches, the
   memory bus and the sibling hyperthreads. The kernels depend on no
   code of the library, so no change to the library moves them; only
   the host does. A run's timings are divided by its speed factor, the
   geometric mean over the kernels of their median time over their
   reference time, so that they read as seconds on a host running at the
   reference speed. The two kernels load the memory system the way the
   graph workloads do: a serial breadth-first search over a fixed random
   graph in plain int arrays (about 4.5 MB, past the L2 cache), and the
   allocation of a list that lives long enough to be promoted. *)

type t = {
  offsets : int array;
  targets : int array;
  dist : int array;
  queue : int array;
  times : float list array;  (** per kernel, newest first *)
}

let nodes = 1 lsl 16
let degree = 8

(* Reference kernel times (s): about the fastest medians seen on the
   2-core Xeon host the benchmark was written on. Only their product
   matters; it sets the speed at which a run's factor is 1. *)
let reference = [| 0.0045; 0.003 |]

let create () =
  let rng = Random.State.make [| 0x5eed |] in
  {
    offsets = Array.init (nodes + 1) (fun i -> i * degree);
    targets = Array.init (nodes * degree) (fun _ -> Random.State.int rng nodes);
    dist = Array.make nodes (-1);
    queue = Array.make nodes 0;
    times = Array.make (Array.length reference) [];
  }

(* A search from node 0; returns the number of nodes reached. *)
let bfs t =
  Array.fill t.dist 0 nodes (-1);
  t.dist.(0) <- 0;
  t.queue.(0) <- 0;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let u = t.queue.(!head) in
    incr head;
    let du = t.dist.(u) + 1 in
    for e = t.offsets.(u) to t.offsets.(u + 1) - 1 do
      let v = t.targets.(e) in
      if t.dist.(v) < 0 then begin
        t.dist.(v) <- du;
        t.queue.(!tail) <- v;
        incr tail
      end
    done
  done;
  !tail

(* A list of 80,000 pairs, summed once built. *)
let alloc () =
  let rec build n acc = if n = 0 then acc else build (n - 1) ((n, n + 1) :: acc) in
  List.fold_left (fun s (a, b) -> s + a + b) 0 (build 80_000 [])

let kernels t = [| (fun () -> bfs t); alloc |]

(* Time each kernel once. *)
let sample t =
  Array.iteri
    (fun k run ->
      let t0 = Galois.Clock.now_s () in
      ignore (Sys.opaque_identity (run ()));
      t.times.(k) <- Galois.Clock.elapsed_s t0 :: t.times.(k))
    (kernels t)

(* The geometric mean of [medians.(k) /. reference.(k)]. *)
let factor_of medians =
  if Array.length medians <> Array.length reference then
    invalid_arg "Calib.factor_of: one median per kernel";
  let logs = Array.mapi (fun k m -> log (m /. reference.(k))) medians in
  exp (Array.fold_left ( +. ) 0.0 logs /. float_of_int (Array.length logs))

(* With [kept], one flag per sample in the order taken, only the flagged
   samples count: those taken next to the timed samples a run keeps. *)
let medians ?kept t =
  Array.map
    (fun times ->
      let times = List.rev times in
      match kept with
      | None -> Summary.median times
      | Some kept ->
          let kept = Array.of_list kept in
          Summary.median (List.filteri (fun i _ -> i < Array.length kept && kept.(i)) times))
    t.times

let factor ?kept t = factor_of (medians ?kept t)
