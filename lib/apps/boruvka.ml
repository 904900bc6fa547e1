(* Boruvka's minimum-spanning-forest algorithm as an unordered Galois
   program — a morph algorithm in the Galois taxonomy, here expressed
   over union-find components.

   A task owns one component (identified by a node): it takes the
   lightest edge leaving its component, merges the two components and
   re-activates the merged component. Neighborhood = the two current
   component roots (locked via per-root locks), so concurrent merges of
   disjoint component pairs proceed in parallel.

   Each root [r] owns a persistent leftist heap [heaps.(r)] of the
   out-edges of its component's vertices, ordered by (weight, edge id),
   and the component size [size.(r)]. Both, and [r]'s union-find cells,
   are read and written only under [locks.(r)]; a target's root is
   found optimistically and re-validated after locking it.

   Heap invariant (between rounds): the top of every root's heap leaves
   the component, and an empty heap means nothing leaves it. The set of
   edges leaving a component changes only when that component merges,
   and the merge melds the two heaps and pops edges off the top while
   they point back into the merged component (an edge that became
   internal deeper down is popped once it surfaces). Inspection is
   therefore a peek at the top — no scan, no allocation — and stays
   cautious; the merge costs O(log m) plus the popped edges.

   Requires a symmetric graph with direction-symmetric weights
   ([Graph_io.undirected_random_weights]); a component's heap holds only
   its vertices' out-edges, so the cut property needs the inward copy to
   carry the same weight. The MSF weight is then unique (ties break by
   edge id), so all policies must agree with [serial] (Kruskal). *)

module Csr = Graphlib.Csr
module Uf = Graphlib.Union_find

type forest = { parent_edge : int list; total_weight : int }

(* Persistent leftist min-heap of edge ids keyed by (weight, edge id);
   each node caches its edge's weight so comparisons are int-only. *)
type heap = Empty | Node of { rank : int; w : int; e : int; l : heap; r : heap }

let rank = function Empty -> 0 | Node n -> n.rank

(* Keep the higher-ranked child on the left (the leftist property). *)
let node w e a b =
  if rank a >= rank b then Node { rank = rank b + 1; w; e; l = a; r = b }
  else Node { rank = rank a + 1; w; e; l = b; r = a }

let rec meld h1 h2 =
  match (h1, h2) with
  | Empty, h | h, Empty -> h
  | Node a, Node b ->
      if a.w < b.w || (a.w = b.w && a.e < b.e) then node a.w a.e a.l (meld a.r h2)
      else node b.w b.e b.l (meld h1 b.r)

(* Unexecuted run description + a closure reading the forest off the
   world. No snapshot hook: the union-find structure has no copy-out
   API, so boruvka supports live in-process resume (the world object is
   shared between the crashed and resumed exec) but not cross-process
   snapshot files. *)
let plan g weights =
  if Array.length weights <> Csr.edges g then
    invalid_arg "Boruvka.galois: weight array size mismatch";
  let n = Csr.nodes g in
  let locks = Galois.Lock.create_array n in
  let uf = Uf.create n in
  let heaps =
    Array.init n (fun u ->
        let h = ref Empty in
        Csr.iter_succ_edges g u (fun e v ->
            if v <> u then h := meld !h (node weights.(e) e Empty Empty));
        !h)
  in
  let size = Array.make n 1 in
  let chosen = Array.make (Csr.edges g) false in
  (* Optimistically find the root of [x], then lock it and re-validate —
     the same pattern as dt's container location. *)
  let rec lock_root ctx x =
    let r = Uf.find_readonly uf x in
    Galois.Context.acquire ctx locks.(r);
    if Uf.find_readonly uf x = r then r else lock_root ctx x
  in
  (* Pop edges off the top while they point into [root]'s component. *)
  let rec clean root = function
    | Node { e; l; r; _ } when Uf.find_readonly uf (Csr.edge_target g e) = root ->
        clean root (meld l r)
    | h -> h
  in
  let operator ctx u =
    let root = lock_root ctx u in
    match heaps.(root) with
    | Empty -> () (* nothing leaves the component: done, pure *)
    | Node { e; _ } ->
        (* By the heap invariant [e] leaves the component, so [other]
           is a distinct root. *)
        let other = lock_root ctx (Csr.edge_target g e) in
        Galois.Context.work ctx size.(root);
        Galois.Context.failsafe ctx;
        let merged = Uf.link uf root other in
        let h = meld heaps.(root) heaps.(other) in
        heaps.(root) <- Empty;
        heaps.(other) <- Empty;
        heaps.(merged) <- clean merged h;
        size.(merged) <- size.(root) + size.(other);
        chosen.(e) <- true;
        Galois.Context.push ctx merged
  in
  let run = Galois.Run.make ~operator (Array.init n Fun.id) |> Galois.Run.app "boruvka" in
  let forest () =
    let parent_edge = ref [] and total = ref 0 in
    Array.iteri
      (fun e picked ->
        if picked then begin
          parent_edge := e :: !parent_edge;
          total := !total + weights.(e)
        end)
      chosen;
    { parent_edge = !parent_edge; total_weight = !total }
  in
  { App.run; result = forest }

let galois ?sink ~policy ?pool g weights = App.exec ?sink ~policy ?pool (plan g weights)

(* Kruskal with sort by (weight, edge id) — the sequential baseline and
   the definition of the deterministic answer. *)
let serial g weights =
  let n = Csr.nodes g in
  let order = Array.init (Csr.edges g) Fun.id in
  Array.sort (fun a b -> compare (weights.(a), a) (weights.(b), b)) order;
  let uf = Uf.create n in
  let edges = Csr.all_edges g in
  let parent_edge = ref [] and total = ref 0 in
  Array.iter
    (fun e ->
      let u, v = edges.(e) in
      if Uf.union uf u v then begin
        parent_edge := e :: !parent_edge;
        total := !total + weights.(e)
      end)
    order;
  { parent_edge = !parent_edge; total_weight = !total }

(* A spanning forest: acyclic (|edges| = n - components) and spanning
   (edge endpoints connect everything connectable). *)
let validate g forest =
  let n = Csr.nodes g in
  let uf = Uf.create n in
  let edges = Csr.all_edges g in
  let acyclic =
    List.for_all
      (fun e ->
        let u, v = edges.(e) in
        Uf.union uf u v)
      forest.parent_edge
  in
  (* Forest components must equal graph components. *)
  let guf = Uf.create n in
  Array.iter (fun (u, v) -> ignore (Uf.union guf u v)) edges;
  acyclic && Uf.components uf = Uf.components guf
