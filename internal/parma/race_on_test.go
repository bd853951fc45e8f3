//go:build race

package parma

// raceEnabled: the race detector's instrumentation changes allocation
// counts, so allocation bounds are exact only in the plain test lane.
const raceEnabled = true
