//go:build race

package netstore

// raceEnabled gates the allocation-budget test: the race detector makes
// sync.Pool drop items at random, so counts under it say nothing.
const raceEnabled = true
