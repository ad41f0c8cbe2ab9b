//go:build race

package core_test

// raceEnabled lets the corpus-scale oracle test sample its labels under
// the race detector, whose instrumentation slows the linear scan ~15×.
const raceEnabled = true
