//go:build race

package core

// raceEnabled reports a race-detector build. Instrumented builds lose
// the compiler's in-place append(s, make([]T, n)...) growth, so the
// world rebuilt for a restore allocates per registered account there
// and allocation budgets do not hold.
const raceEnabled = true
