package step

// Phase is a world's plan/apply phase word: the ownership rule that
// makes the simulated world single-writer without locks.
//
// RunInto raises the word for the duration of a section's plan phase —
// while plan functions run — and lowers it at the barrier, before any
// intent is applied. World state (the platform and its social graph) may
// only be mutated while the word is down: by apply, by scheduler
// callbacks, and at the ingress drain point, all of which run on the
// world's one goroutine. Every platform and socialgraph mutator calls
// CheckWrite.
//
// The check is enforced only in race-detector builds (phase_race.go),
// where a mutation during plan panics with the name of the mutator. In
// normal builds (phase_norace.go) the word is empty and every method
// compiles away, so the rule costs nothing on the hot path. A nil
// *Phase is valid and never trips.
type Phase struct{ phaseWord }
