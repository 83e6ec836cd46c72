//go:build race

package engine_test

// raceEnabled switches off the allocation guard: the race detector's
// instrumentation allocates on its own.
const raceEnabled = true
