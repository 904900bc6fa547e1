(** {!Run.report} under its older name, which the apps' [galois]
    wrappers and their callers use. Runs are built and executed with
    {!Run}. *)

type report = Run.report = {
  stats : Stats.t;
  schedule : Schedule.t option;
  trace : Obs.stamped list option;
  audit : Audit.report option;
}
