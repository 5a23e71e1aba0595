package liberty

// SharesAxes exposes whether Prepare found the arc's four delay and
// transition tables on one grid, for the external Eval tests.
func SharesAxes(a *TimingArc) bool { return a.shared }
