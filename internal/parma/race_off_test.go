//go:build !race

package parma

const raceEnabled = false
