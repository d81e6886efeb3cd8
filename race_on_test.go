//go:build race

package informer

// raceEnabled reports a -race build. The race detector drops sync.Pool
// entries at random, so byte gates over pooled scratch do not repeat.
const raceEnabled = true
