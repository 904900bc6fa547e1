(** The app table: every single-run benchmark once, with the one place
    its seeded input is built. [galois_run], [detcheck] (its app,
    replay and audit cases) and [bench_apps] all read this table.

    Preflow-push is not in it: its run is a loop of epochs, not one
    {!Galois.Run.t}. *)

type ('item, 'state) world = {
  run : ('item, 'state) Galois.Run.t;  (** the app's unexecuted plan over this world *)
  output : unit -> Galois.Trace_digest.t;
      (** order-sensitive digest of the output; thread-invariant at a
          fixed det configuration *)
  canonical : unit -> Galois.Trace_digest.t;
      (** digest of the configuration-invariant answer (detcheck's
          canonical digest) *)
  valid : unit -> bool;  (** the output passes the app's own check *)
  summary : unit -> string;  (** one line describing the output *)
}
(** A fresh world: read [output], [canonical], [valid] and [summary]
    after executing [run]. *)

type input =
  | Input : {
      graph : Graphlib.Csr.t option;  (** the graph the app runs on, if any *)
      fresh : static_id:bool -> ('item, 'state) world;
          (** a brand-new world over this input; [~static_id:true] keys
              tasks by node id, and is ignored unless the entry is
              [static_id_capable] *)
    }
      -> input

type t = {
  name : string;
  points : bool;  (** the size counts mesh points, not graph nodes *)
  snapshot_capable : bool;
      (** the plan carries a snapshot-state hook: resume from a file in
          a fresh process works, not only live in-process resume *)
  static_id_capable : bool;
      (** running with static ids preserves the app's semantics *)
  load : size:int -> seed:int -> input;  (** build the seeded input *)
}

val all : t list
(** bfs, sssp, boruvka, dmr, cc, mis, dt, pagerank, triangles, kcore. *)

val find : string -> t option
(** Look an entry up by name; [mst] names [boruvka]. *)

val get : string -> t
(** {!find}, raising [Invalid_argument] on an unknown name. *)

val pfp_input : size:int -> seed:int -> Flow_network.t
(** Preflow-push's seeded input: a [size]-node flow network of
    out-degree 4. Build one per run, since pfp consumes it. *)

val case_name : t -> size:int -> seed:int -> string
(** [bfs(n=300,seed=7)], or [dmr(points=90,seed=7)] for point inputs. *)

val floor_log2 : int -> int
(** [⌊log2 n⌋]: the R-MAT scale of an [n]-node size (triangles). *)
