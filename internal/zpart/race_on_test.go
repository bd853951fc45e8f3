//go:build race

package zpart

// raceEnabled gates the allocation-regression test: the race detector's
// instrumentation changes allocation behavior, so counts are only
// meaningful in the plain test lane.
const raceEnabled = true
