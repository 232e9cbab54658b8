//go:build race

package server

// raceEnabled reports a -race build, where allocation counts are not pinned
// for pooled objects: the race detector makes sync.Pool drop a random
// quarter of what it is given.
const raceEnabled = true
