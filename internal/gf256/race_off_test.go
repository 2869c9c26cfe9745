//go:build !race

package gf256

// raceEnabled reports whether the race detector is active; the
// exhaustive kernel differential thins its coefficient sweep under it
// (the instrumented scalar oracle is ~40x slower and the kernels are
// single-threaded).
const raceEnabled = false
