//go:build race

package behavior

// raceEnabled reports a race-detector build. Instrumented builds lose
// the compiler's in-place append(s, make([]T, n)...) growth, so table
// growth allocates there and allocation budgets do not hold.
const raceEnabled = true
