//go:build !race

package main

// raceEnabled reports whether the race detector is instrumenting this
// build (it adds bookkeeping allocations that break alloc assertions).
const raceEnabled = false
