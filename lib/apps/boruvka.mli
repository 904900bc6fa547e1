(** Boruvka's minimum spanning forest as an unordered Galois program.

    Each component root owns a persistent leftist heap of its vertices'
    out-edges ordered by (weight, edge id), guarded by that root's lock.
    Between rounds the top of every root's heap leaves the component
    (empty: nothing leaves), so a task locks its root, peeks the top and
    locks the top's target root — no scan, no allocation. After the
    failsafe point it links the two roots, melds their heaps into the new
    root and pops edges that now point back into it.

    Requires a symmetric graph with direction-symmetric weights
    ({!Graphlib.Graph_io.undirected_random_weights}); ties break by edge
    id, making the forest weight unique across all policies. *)

type forest = { parent_edge : int list; total_weight : int }

val plan : Graphlib.Csr.t -> int array -> (int, unit, forest) App.plan
(** The unexecuted {!galois} description plus a reader of the forest
    (recomputed off the world on each call). Tagged [app "boruvka"];
    carries no snapshot-state hook (union-find is not serializable), so
    it supports live in-process resume only. *)

val galois :
  ?sink:Obs.sink ->
  policy:Galois.Policy.t ->
  ?pool:Galois.Pool.t ->
  Graphlib.Csr.t ->
  int array ->
  forest * Galois.Runtime.report

val serial : Graphlib.Csr.t -> int array -> forest
(** Kruskal with (weight, edge id) ordering — defines the deterministic
    answer. *)

val validate : Graphlib.Csr.t -> forest -> bool
(** Acyclic and spanning (forest components = graph components). *)
