//go:build race

package core

// raceEnabled reports a -race build: the race runtime drops pooled
// buffers at random, so allocation budgets do not hold there.
const raceEnabled = true
