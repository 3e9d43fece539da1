//go:build race

package enframe

// raceEnabled is set under the race detector, whose sync.Pool drops pooled
// values at random: the alloc guards that count on recycled storage then
// measure the race runtime, not the code.
const raceEnabled = true
