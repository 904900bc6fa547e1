(** An app written once (paper §1, on-demand): the unexecuted run plus a
    reader of its result. Policy, pool, sinks, schedule recording,
    auditing and checkpointing are composed onto [run] by the caller
    with the {!Galois.Run} combinators. *)

type ('item, 'state, 'result) plan = {
  run : ('item, 'state) Galois.Run.t;
  result : unit -> 'result;  (** read the result off the world; call after executing *)
}

val exec :
  ?sink:Obs.sink ->
  policy:Galois.Policy.t ->
  ?pool:Galois.Pool.t ->
  ('item, 'state, 'result) plan ->
  'result * Galois.Runtime.report
(** Execute the plan under [policy] (on [pool], streaming into [sink]
    when given) and read its result. *)
