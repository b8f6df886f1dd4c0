//go:build race

package lsh

// raceEnabled reports a -race build, where sync.Pool drops a share of Put
// items on purpose and allocation counts are not meaningful.
const raceEnabled = true
