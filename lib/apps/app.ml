type ('item, 'state, 'result) plan = {
  run : ('item, 'state) Galois.Run.t;
  result : unit -> 'result;
}

let exec ?sink ~policy ?pool p =
  let report =
    p.run
    |> Galois.Run.policy policy
    |> Galois.Run.opt Galois.Run.pool pool
    |> Galois.Run.opt Galois.Run.sink sink
    |> Galois.Run.exec
  in
  (p.result (), report)
