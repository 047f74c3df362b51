//go:build race

package stripecache

// raceEnabled reports whether the race detector is compiled in. Its
// instrumentation dominates the cost of every lock and memory access,
// so the wall-clock contention comparison skips under it.
const raceEnabled = true
