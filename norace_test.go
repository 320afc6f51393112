//go:build !race

package fairrank

const raceEnabled = false
