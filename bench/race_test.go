//go:build race

package main

// The race detector slows the relay several times over, so the
// open-loop workloads drop events at their fixed rates; the smoke test
// then checks only that they run without a data race.
func init() { raceEnabled = true }
