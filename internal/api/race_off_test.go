//go:build !race

package api_test

// raceEnabled reports whether the race detector is active; alloc gates
// skip under it (instrumentation allocates on its own).
const raceEnabled = false
