//go:build race

package fairrank

// raceEnabled reports a -race build: the detector makes sync.Pool drop a
// random share of Puts and slows every kernel, so allocation counts taken
// under it say nothing about the code.
const raceEnabled = true
