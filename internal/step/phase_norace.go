//go:build !race

package step

// phaseWord is empty outside race-detector builds: the ownership check
// compiles away.
type phaseWord struct{}

func (*Phase) beginPlan() {}

func (*Phase) endPlan() {}

// CheckWrite panics if a plan phase is in flight; outside race-detector
// builds it does nothing.
func (*Phase) CheckWrite(string) {}
