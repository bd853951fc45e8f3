//go:build race

package mesh_test

// raceEnabled gates allocation-regression tests: the race detector's
// instrumentation changes allocation behavior, so counts are only
// meaningful in the plain test lane.
const raceEnabled = true
