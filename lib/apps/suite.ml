(* The app table. Each entry builds its seeded input once per [load];
   [fresh] then builds a new world over it (a new distance array, a
   new mesh, ...) so one input serves any number of runs. *)

module D = Galois.Trace_digest
module Csr = Graphlib.Csr

type ('item, 'state) world = {
  run : ('item, 'state) Galois.Run.t;
  output : unit -> D.t;
  canonical : unit -> D.t;
  valid : unit -> bool;
  summary : unit -> string;
}

type input =
  | Input : {
      graph : Csr.t option;
      fresh : static_id:bool -> ('item, 'state) world;
    }
      -> input

type t = {
  name : string;
  points : bool;
  snapshot_capable : bool;
  static_id_capable : bool;
  load : size:int -> seed:int -> input;
}

let floor_log2 n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

(* A world over [plan]: every reader re-reads the plan's result. The
   canonical digest defaults to the output digest (unique answers). *)
let world ?canonical ~output ~valid ~summary (plan : _ App.plan) =
  let canonical = Option.value canonical ~default:output in
  let read f () = f (plan.result ()) in
  {
    run = plan.run;
    output = read output;
    canonical = read canonical;
    valid = read valid;
    summary = read summary;
  }

(* Static ids for plans whose tasks are node ids. *)
let by_node ~static_id (plan : (int, _, _) App.plan) =
  if static_id then { plan with run = Galois.Run.static_id Fun.id plan.run } else plan

let ints a = Array.fold_left D.fold_int D.seed a
let holds b = D.fold_bool D.seed b
let count p a = Array.fold_left (fun n x -> if p x then n + 1 else n) 0 a

let mesh_digest mesh =
  List.fold_left
    (fun d tri -> List.fold_left (fun d (x, y) -> D.fold_float (D.fold_float d x) y) d tri)
    D.seed (Dt.canonical mesh)

let kout ~k ~size ~seed = Graphlib.Generators.kout ~seed ~n:size ~k ()
let input ?graph fresh = Input { graph; fresh }

let entry ?(points = false) ?(snapshot = false) ?(static_id = false) name load =
  { name; points; snapshot_capable = snapshot; static_id_capable = static_id; load }

let bfs =
  entry "bfs" ~snapshot:true (fun ~size ~seed ->
      let g = kout ~k:5 ~size ~seed in
      input ~graph:g (fun ~static_id:_ ->
          world (Bfs.plan g ~source:0) ~output:ints ~valid:(Bfs.validate g ~source:0)
            ~summary:(fun d ->
              Printf.sprintf "reached %d of %d nodes" (count (( <> ) Bfs.unreached) d) size)))

let sssp =
  entry "sssp" ~snapshot:true (fun ~size ~seed ->
      let g = kout ~k:5 ~size ~seed in
      let w = Graphlib.Graph_io.random_weights ~seed:(seed + 1) g in
      input ~graph:g (fun ~static_id:_ ->
          world (Sssp.plan g w ~source:0) ~output:ints ~valid:(Sssp.validate g w ~source:0)
            ~summary:(fun d ->
              Printf.sprintf "reached %d of %d nodes" (count (( <> ) Sssp.unreached) d) size)))

(* The forest's weight and size are unique; its edge ids are not across
   configurations (an undirected edge has two directed ids, and which
   one represents it depends on contraction order), so only (size,
   weight) is canonical. *)
let boruvka =
  entry "boruvka" (fun ~size ~seed ->
      let g = Csr.symmetrize (kout ~k:4 ~size ~seed) in
      let w = Graphlib.Graph_io.undirected_random_weights ~seed:(seed + 1) g in
      input ~graph:g (fun ~static_id:_ ->
          world (Boruvka.plan g w)
            ~output:(fun (f : Boruvka.forest) ->
              D.fold_int (List.fold_left D.fold_int D.seed f.parent_edge) f.total_weight)
            ~canonical:(fun (f : Boruvka.forest) ->
              D.fold_int (D.fold_int D.seed (List.length f.parent_edge)) f.total_weight)
            ~valid:(Boruvka.validate g)
            ~summary:(fun (f : Boruvka.forest) ->
              Printf.sprintf "forest: %d edges, total weight %d" (List.length f.parent_edge)
                f.total_weight)))

(* Refinement picks configuration-dependent Steiner points, so only the
   postcondition (consistent and fully refined) is canonical; the mesh
   itself must still be thread-invariant at a fixed configuration. *)
let dmr =
  entry "dmr" ~points:true (fun ~size ~seed ->
      let pts = Geometry.Point.random_unit_square ~seed size in
      let post mesh =
        (Result.is_ok (Mesh.check_consistency mesh), Dmr.refined Dmr.default_config mesh)
      in
      input (fun ~static_id:_ ->
          let mesh = Dt.serial pts in
          let before = Mesh.triangle_count mesh in
          world (Dmr.plan mesh) ~output:mesh_digest
            ~canonical:(fun m ->
              let consistent, refined = post m in
              D.fold_bool (holds consistent) refined)
            ~valid:(fun m -> post m = (true, true))
            ~summary:(fun m ->
              Printf.sprintf "triangles %d -> %d" before (Mesh.triangle_count m))))

let cc =
  entry "cc" ~static_id:true (fun ~size ~seed ->
      let g = Csr.symmetrize (kout ~k:5 ~size ~seed) in
      input ~graph:g (fun ~static_id ->
          world (by_node ~static_id (Cc.plan g)) ~output:ints ~valid:(Cc.validate g)
            ~summary:(fun l -> Printf.sprintf "%d components" (Cc.count_components l))))

(* Which maximal independent set comes out depends on the schedule;
   only its validity is canonical. *)
let mis =
  entry "mis" ~static_id:true (fun ~size ~seed ->
      let g = Csr.symmetrize (kout ~k:5 ~size ~seed) in
      input ~graph:g (fun ~static_id ->
          world (by_node ~static_id (Mis.plan g))
            ~output:(Array.fold_left D.fold_bool D.seed)
            ~canonical:(fun m -> holds (Mis.is_maximal_independent g m))
            ~valid:(Mis.is_maximal_independent g)
            ~summary:(fun m -> Printf.sprintf "|MIS| = %d" (count Fun.id m))))

let dt =
  entry "dt" ~points:true (fun ~size ~seed ->
      let pts = Geometry.Point.random_unit_square ~seed size in
      let delaunay m = Mesh.delaunay_violations m = 0 in
      input (fun ~static_id:_ ->
          world (Dt.plan pts) ~output:mesh_digest
            ~canonical:(fun m -> D.fold_int (holds (delaunay m)) (Mesh.triangle_count m))
            ~valid:delaunay
            ~summary:(fun m ->
              Printf.sprintf "triangles=%d, delaunay violations=%d" (Mesh.triangle_count m)
                (Mesh.delaunay_violations m))))

(* Ranks converge to the power iteration within tolerance under every
   schedule, but the fixed-point values themselves are schedule
   dependent: only agreement within tolerance is canonical. *)
let pagerank =
  entry "pagerank" ~static_id:true (fun ~size ~seed ->
      let g = kout ~k:5 ~size ~seed in
      let reference = lazy (Pagerank.serial g) in
      let deviation r = Pagerank.max_abs_diff r (Lazy.force reference) in
      let close r = deviation r <= 0.01 in
      input ~graph:g (fun ~static_id ->
          world (by_node ~static_id (Pagerank.plan g))
            ~output:(Array.fold_left D.fold_float D.seed)
            ~canonical:(fun r -> holds (close r))
            ~valid:close
            ~summary:(fun r ->
              Printf.sprintf "max deviation from power iteration: %.5f" (deviation r))))

let triangles =
  entry "triangles" ~static_id:true (fun ~size ~seed ->
      let g =
        Csr.symmetrize
          (Graphlib.Generators.rmat ~seed ~scale:(floor_log2 size) ~edge_factor:8 ())
      in
      input ~graph:g (fun ~static_id ->
          world (by_node ~static_id (Triangles.plan g)) ~output:(D.fold_int D.seed)
            ~valid:(fun total -> total = Triangles.serial g)
            ~summary:(Printf.sprintf "%d triangles")))

let kcore =
  entry "kcore" ~snapshot:true (fun ~size ~seed ->
      let g = Csr.symmetrize (kout ~k:5 ~size ~seed) in
      input ~graph:g (fun ~static_id:_ ->
          world (Kcore.plan g) ~output:ints ~valid:(Kcore.validate g)
            ~summary:(fun c -> Printf.sprintf "max coreness=%d" (Array.fold_left max 0 c))))

let all = [ bfs; sssp; boruvka; dmr; cc; mis; dt; pagerank; triangles; kcore ]
let find name = List.find_opt (fun e -> e.name = if name = "mst" then "boruvka" else name) all

let get name =
  match find name with Some e -> e | None -> invalid_arg ("Apps.Suite: unknown app " ^ name)

let pfp_input ~size ~seed =
  let g, caps, source, sink = Graphlib.Generators.flow_network ~seed ~n:size ~k:4 () in
  Flow_network.of_graph g caps ~source ~sink

let case_name e ~size ~seed =
  Printf.sprintf "%s(%s=%d,seed=%d)" e.name (if e.points then "points" else "n") size seed
