(* Open-loop arrivals at a fixed offered rate. Query [i] is due [i /
   rate] seconds after the loop starts, whatever the server is doing,
   so a stall delays every query queued behind it and that delay is
   counted: latency runs from the due time, not from the submission. *)

let due ~start ~rate i = start +. (float_of_int i /. rate)

(* How late the generator itself submitted a query. *)
let lateness ~due ~submitted = submitted -. due

(* [service_s] is the server's own submit-to-completion time. *)
let latency ~due ~submitted ~service_s = submitted -. due +. service_s

(* Submit every due query, drain when anything is pending, otherwise
   sleep until the next due time. The clock and the server are passed
   in, so the arithmetic can be checked against a simulated clock.
   Returns the start time every due time is relative to. *)
let run ~rate ~count ~now ~sleep ~submit ~pending ~drain =
  if rate <= 0.0 then invalid_arg "Open_loop.run: rate must be positive";
  let start = now () in
  let next = ref 0 in
  while !next < count || pending () > 0 do
    let t = now () in
    while !next < count && due ~start ~rate !next <= t do
      submit !next ~due:(due ~start ~rate !next);
      incr next
    done;
    if pending () > 0 then drain ()
    else if !next < count then sleep (Float.max 0.0 (due ~start ~rate !next -. now ()))
  done;
  start
