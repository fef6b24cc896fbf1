//go:build race

package relstore

// raceEnabled reports a -race build, whose sync.Pool drops items at random:
// allocation budgets of paths that lease pooled scratch do not hold there.
const raceEnabled = true
