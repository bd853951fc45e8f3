//go:build !race

package adapt

const raceEnabled = false
