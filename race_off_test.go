//go:build !race

package enframe

const raceEnabled = false
