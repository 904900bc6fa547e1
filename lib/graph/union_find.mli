(** Union-find (path halving + union by rank). *)

type t

val create : int -> t

val find : t -> int -> int
(** Root with path halving (mutates). *)

val find_readonly : t -> int -> int
(** Root without any mutation; usable under fine-grain locking. *)

val union : t -> int -> int -> bool
(** [false] when already in the same set. *)

val link : t -> int -> int -> int
(** [link t ra rb] joins two distinct {e roots} by rank and returns the
    new root (the higher-ranked one; [ra] on a tie). No path halving: it
    writes only the two roots' cells, so it is safe under per-root
    locking with both roots held. Raises [Invalid_argument] when either
    argument is not a root or [ra = rb]. *)

val same : t -> int -> int -> bool
val components : t -> int
