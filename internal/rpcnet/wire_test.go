package rpcnet

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
)

// The data-path gates: a wire read fetches only the pages it asks for,
// and each byte moved between client and server (both in this process)
// costs a bounded number of allocated bytes. The server is composed
// like cmd/bsfsd (256 KiB pages, replication 1, RAM-only providers)
// with 4 MiB blocks, so a file of a few blocks stays small.
const (
	wirePage  = 256 << 10
	wireBlock = 4 << 20
	// wireFile spans four blocks plus a partial page, so reads cross
	// block boundaries and end mid-page.
	wireFile = 4*wireBlock + 100<<10
)

// startWireServer serves a bsfsd-shaped deployment and returns a
// connected client with the deployment behind it, torn down at the end
// of the test.
func startWireServer(tb testing.TB) (*Client, *core.Deployment) {
	tb.Helper()
	c, dep, stop := serveWire(tb)
	tb.Cleanup(stop)
	return c, dep
}

// serveWire is startWireServer with the teardown left to the caller.
func serveWire(tb testing.TB) (*Client, *core.Deployment, func()) {
	tb.Helper()
	return serve(tb, 5, core.Options{
		PageSize:      wirePage,
		ProviderNodes: []cluster.NodeID{1, 2, 3, 4},
	}, wireBlock)
}

func wirePayload(n int) []byte {
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i*7 + i>>11)
	}
	return data
}

// pageGets sums the page-store lookups (hits and misses) across the
// deployment's providers.
func pageGets(dep *core.Deployment) uint64 {
	var n uint64
	for _, p := range dep.ProviderList() {
		st := p.Store().Stats()
		n += st.Hits + st.Misses
	}
	return n
}

// TestWireReadFetchesOnlyRequestedPages pins request-granularity
// serving: a ReadRange gets exactly the pages its range overlaps from
// the providers, not the enclosing block plus a readahead of the next.
func TestWireReadFetchesOnlyRequestedPages(t *testing.T) {
	c, dep := startWireServer(t)
	data := wirePayload(wireFile)
	if err := c.Put("/amp", data); err != nil {
		t.Fatal(err)
	}
	for _, r := range []struct{ off, length int64 }{
		{0, 1},
		{wirePage - 10, 20},                  // straddles a page boundary
		{wireBlock - 3*wirePage/2, 64 << 10}, // inside block 0, before block 1
		{wireBlock - 100, 200},               // straddles a block boundary
		{wireFile - 50<<10, 64 << 10},        // runs past EOF
	} {
		before := pageGets(dep)
		got, err := c.ReadRange("/amp", 0, r.off, r.length)
		if err != nil {
			t.Fatal(err)
		}
		end := min(r.off+r.length, int64(wireFile))
		if !bytes.Equal(got, data[r.off:end]) {
			t.Fatalf("ReadRange(%d, %d): wrong bytes", r.off, r.length)
		}
		want := uint64((end+wirePage-1)/wirePage - r.off/wirePage)
		if gets := pageGets(dep) - before; gets != want {
			t.Errorf("ReadRange(%d, %d) fetched %d pages, want the %d it overlaps", r.off, r.length, gets, want)
		}
	}
}

// allocPerByte runs fn once and returns the heap bytes allocated
// process-wide per byte moved. It forces no GC first: a GC empties the
// page-buffer pools, and refilling them would be charged to fn.
func allocPerByte(moved int, fn func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(moved)
}

func assertAllocPerByte(t *testing.T, what string, got, max float64) {
	t.Helper()
	t.Logf("%s: %.2f bytes allocated per byte moved (limit %.0f)", what, got, max)
	if got > max {
		t.Errorf("%s: %.2f bytes allocated per byte moved, want <= %.0f", what, got, max)
	}
}

func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation gate: the race runtime inflates allocation counts")
	}
}

// TestAllocWirePut bounds the bytes allocated per byte of a Put: the
// client's encode, the server's decode, one block buffer in the BSFS
// writer and the page store's copy, with no doubling growth anywhere.
func TestAllocWirePut(t *testing.T) {
	skipUnderRace(t)
	c, _ := startWireServer(t)
	data := wirePayload(wireFile)
	if err := c.Put("/warm", data[:wireBlock]); err != nil {
		t.Fatal(err)
	}
	var err error
	got := allocPerByte(len(data), func() { err = c.Put("/put", data) })
	if err != nil {
		t.Fatal(err)
	}
	assertAllocPerByte(t, "Put", got, 6)
}

// TestAllocWireGet bounds the bytes allocated per byte of a whole-file
// Get and of a 64 KiB ReadRange: the server reads exactly the range
// and the client decodes each chunk into its presized result.
func TestAllocWireGet(t *testing.T) {
	skipUnderRace(t)
	c, _ := startWireServer(t)
	data := wirePayload(wireFile)
	if err := c.Put("/get", data); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("/get", 0); err != nil { // warm the connection's codecs
		t.Fatal(err)
	}
	var out []byte
	var err error
	got := allocPerByte(len(data), func() { out, err = c.Get("/get", 0) })
	if err != nil || !bytes.Equal(out, data) {
		t.Fatalf("Get: %d bytes, %v", len(out), err)
	}
	assertAllocPerByte(t, "Get", got, 4)

	// 16 record-sized reads, one every 1 MiB, so a pool refill after
	// an unrelated GC cannot dominate the count.
	const rangeLen, reads = 64 << 10, 16
	got = allocPerByte(reads*rangeLen, func() {
		for i := range reads {
			off := int64(i<<20 + 3*rangeLen)
			out, err = c.ReadRange("/get", 0, off, rangeLen)
			if err != nil || !bytes.Equal(out, data[off:off+rangeLen]) {
				t.Fatalf("ReadRange(%d): %d bytes, %v", off, len(out), err)
			}
		}
	})
	assertAllocPerByte(t, "64 KiB ReadRange", got, 4)
}

// BenchmarkWirePutGet moves one multi-block file through Put and then
// Get over loopback TCP per iteration; MB/s counts both directions.
// Each iteration gets a fresh server, outside the timer, because a
// server keeps every file it stores.
func BenchmarkWirePutGet(b *testing.B) {
	data := wirePayload(wireFile)
	b.SetBytes(2 * int64(len(data)))
	b.ReportAllocs()
	b.StopTimer()
	for i := 0; i < b.N; i++ {
		c, _, stop := serveWire(b)
		b.StartTimer()
		if err := c.Put("/bench", data); err != nil {
			b.Fatal(err)
		}
		got, err := c.Get("/bench", 0)
		if err != nil || len(got) != len(data) {
			b.Fatalf("Get: %d bytes, %v", len(got), err)
		}
		b.StopTimer()
		stop()
	}
}
