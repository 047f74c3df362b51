//go:build race

package rpcnet

// raceEnabled reports whether the race detector is compiled in. Its
// runtime instruments memory accesses with extra allocations, so the
// allocation gates skip under it.
const raceEnabled = true
