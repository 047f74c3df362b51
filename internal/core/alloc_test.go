package core

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"
)

// Allocation-regression assertions for the two hot paths this package
// optimizes: the append protocol and the cached read. Each threshold is
// half the allocation count measured before the zero-alloc work
// (sharded metadata cache, pooled page buffers, byte-rendered keys), so
// a change that gives back the win fails here instead of silently
// rotting the benchmarks. The race runtime inflates allocation counts
// and would trip them falsely, so every gate here skips under -race.
//
// Pre-optimization baselines (allocs/op, one provider contacted at a
// time, as on the inline env):
//
//	AppendSynthetic 221   AppendReal 236
//	CachedReadSynthetic 438   CachedReadReal 165
func assertAllocs(t *testing.T, got, max float64) {
	t.Helper()
	t.Logf("%.1f allocs/op (limit %.0f)", got, max)
	if got > max {
		t.Errorf("%.1f allocs/op, want <= %.0f (2x under the pre-optimization baseline)", got, max)
	}
}

func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation gate: the race runtime inflates allocation counts")
	}
}

func TestAllocAppendSynthetic(t *testing.T) {
	skipUnderRace(t)
	_, c := newBenchDeployment(t, Options{PageSize: 256 << 10})
	blob, err := c.CreateBlob(0)
	if err != nil {
		t.Fatal(err)
	}
	blocks := SyntheticBlocks(1 << 20) // 4 pages per version
	assertAllocs(t, testing.AllocsPerRun(300, func() {
		if _, _, err := blob.Append(blocks); err != nil {
			t.Fatal(err)
		}
	}), 110)
}

func TestAllocAppendReal(t *testing.T) {
	skipUnderRace(t)
	_, c := newBenchDeployment(t, Options{PageSize: 64 << 10})
	blob, err := c.CreateBlob(0)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 256<<10) // 4 pages per version
	assertAllocs(t, testing.AllocsPerRun(300, func() {
		if _, _, err := blob.Append(Blocks(payload)); err != nil {
			t.Fatal(err)
		}
	}), 118)
}

func TestAllocCachedReadSynthetic(t *testing.T) {
	skipUnderRace(t)
	_, c := newBenchDeployment(t, Options{PageSize: 256 << 10})
	blob, err := c.CreateBlob(0)
	if err != nil {
		t.Fatal(err)
	}
	vs, _, err := blob.Append(SyntheticBlocks(64 << 20)) // 256 pages
	if err != nil {
		t.Fatal(err)
	}
	v := vs[0]
	assertAllocs(t, testing.AllocsPerRun(300, func() {
		n, err := blob.ReadAt(nil, 0, Synthetic(16<<20), AtVersion(v))
		if err != nil || n != 16<<20 {
			t.Fatalf("read %d, %v", n, err)
		}
	}), 219)
}

func TestAllocCachedReadReal(t *testing.T) {
	skipUnderRace(t)
	_, c := newBenchDeployment(t, Options{PageSize: 64 << 10})
	blob, err := c.CreateBlob(0)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 1<<20)
	vs, _, err := blob.Append(Blocks(payload))
	if err != nil {
		t.Fatal(err)
	}
	v := vs[0]
	buf := make([]byte, 1<<20)
	assertAllocs(t, testing.AllocsPerRun(300, func() {
		n, err := blob.ReadAt(buf, 0, AtVersion(v))
		if err != nil || n != 1<<20 {
			t.Fatalf("read %d, %v", n, err)
		}
	}), 82)
}

// TestAllocClientPathBelowUnpooledBaseline pins what pooled page
// buffers and the striped metadata cache save on the client path: one
// 4-page append plus one 4-page cached read must allocate no more
// objects and no more bytes than the retired unpooled single-mutex
// configuration did (BENCH_ablations.json, measured the same way). It
// is the one gate on bytes: AllocsPerRun counts allocations only.
func TestAllocClientPathBelowUnpooledBaseline(t *testing.T) {
	skipUnderRace(t)
	const pageSize = 64 << 10
	_, c := newBenchDeployment(t, Options{PageSize: pageSize})
	blob, err := c.CreateBlob(0)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 4*pageSize)
	buf := make([]byte, len(payload))
	round := func() {
		vs, off, err := blob.Append(Blocks(payload))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := blob.ReadAt(buf, off, AtVersion(vs[0])); err != nil {
			t.Fatal(err)
		}
	}
	// Warm the pools, caches and history before measuring.
	for i := 0; i < 8; i++ {
		round()
	}
	const ops = 128
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < ops; i++ {
		round()
	}
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / ops
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / ops
	maxAllocs := ablationBaseline(t, "a8_unpooled_allocs_per_op")
	maxBytes := ablationBaseline(t, "a8_unpooled_bytes_per_op")
	t.Logf("append+read: %.1f allocs/op %.0f B/op (unpooled baseline %.1f allocs/op %.0f B/op)",
		allocs, bytes, maxAllocs, maxBytes)
	if allocs > maxAllocs {
		t.Errorf("%.1f allocs/op, want <= %.1f (the unpooled baseline)", allocs, maxAllocs)
	}
	if bytes > maxBytes {
		t.Errorf("%.0f B/op, want <= %.0f (the unpooled baseline)", bytes, maxBytes)
	}
}

// ablationBaseline returns a retired ablation arm's recorded number
// from BENCH_ablations.json at the repository root.
func ablationBaseline(t *testing.T, name string) float64 {
	t.Helper()
	raw, err := os.ReadFile("../../BENCH_ablations.json")
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		Baselines []struct {
			Name  string
			Value float64
		}
	}
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	for _, b := range f.Baselines {
		if b.Name == name {
			return b.Value
		}
	}
	t.Fatalf("BENCH_ablations.json has no baseline %q", name)
	return 0
}
