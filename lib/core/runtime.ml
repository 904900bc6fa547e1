type report = Run.report = {
  stats : Stats.t;
  schedule : Schedule.t option;
  trace : Obs.stamped list option;
  audit : Audit.report option;
}
