//go:build race

package rw

// raceEnabled reports a -race build. The race detector makes sync.Pool
// drop items at random, so exact allocation counts are not stable
// under it.
const raceEnabled = true
