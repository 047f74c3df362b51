//go:build unix

package stripecache

import (
	"fmt"
	"slices"
	"sync"
	"syscall"
	"testing"
	"time"
)

// TestShardedNotSlowerThanSingleStripe: under 16 concurrent readers of
// a hot key set, 16 stripes must serve reads at least as fast as one
// (the single-mutex cache the stripes replaced), within a 10% margin
// for scheduling noise. Both numbers are wall clock: lock contention
// only exists between threads that really run at once. With 16 readers
// on one mutex the striped cache wins by multiples, so a regression to
// parity still fails loudly.
//
// The configurations are measured in back-to-back pairs and the median
// pair ratio is compared. A pair counts only if both runs kept at least
// 1.5 CPUs busy: on an oversubscribed host the readers take turns on
// one CPU, nothing contends, and the single mutex can even win by
// parking every reader but one. If too few pairs qualify, the test
// skips rather than compare uncontended runs.
func TestShardedNotSlowerThanSingleStripe(t *testing.T) {
	const (
		readers      = 16
		opsPerReader = 10000
		pairs        = 5
		attempts     = 40
		minCPUs      = 1.5
	)
	if raceEnabled {
		t.Skip("wall-clock comparison: the race runtime dominates lock costs")
	}
	var ratios []float64
	for a := 0; a < attempts && len(ratios) < pairs; a++ {
		sharded, shardedCPUs := readThroughput(t, 16, readers, opsPerReader)
		single, singleCPUs := readThroughput(t, 1, readers, opsPerReader)
		if min(shardedCPUs, singleCPUs) >= minCPUs {
			ratios = append(ratios, sharded/single)
		}
	}
	if len(ratios) < pairs {
		t.Skipf("only %d of %d pairs ran the readers on >= %.1f CPUs: host too busy to measure lock contention",
			len(ratios), attempts, minCPUs)
	}
	slices.Sort(ratios)
	median := ratios[pairs/2]
	t.Logf("%d readers: 16 stripes / 1 stripe read throughput, median of %d pairs %.2fx (range %.2f-%.2fx)",
		readers, pairs, median, ratios[0], ratios[pairs-1])
	if median < 0.9 {
		t.Fatalf("striped cache slower than a single mutex under %d readers: %.2fx", readers, median)
	}
}

// readThroughput measures aggregate Get throughput (reads/s) of a hot
// cache with the given stripe count under concurrent readers, all
// released at once, and the CPUs the process kept busy meanwhile
// (CPU time over wall time).
func readThroughput(t *testing.T, shards, readers, opsPerReader int) (readsPerSec, cpus float64) {
	const keys = 4096
	// 2x headroom: hashing spreads keys over shards only approximately
	// evenly, and a shard filled past its per-shard cap would evict.
	c := New(shards, 2*keys)
	val := make([]byte, 64)
	keyset := make([]string, keys)
	for i := range keyset {
		keyset[i] = fmt.Sprintf("m/1/%d/%d/1", i%257, i)
		c.Put(keyset[i], val)
	}
	var ready, done sync.WaitGroup
	start := make(chan struct{})
	for r := 0; r < readers; r++ {
		ready.Add(1)
		done.Add(1)
		go func(r int) {
			defer done.Done()
			ready.Done()
			<-start
			i := r * 31
			for n := 0; n < opsPerReader; n++ {
				// Every reader walks the whole key set with its own
				// stride, so all stripes stay hot and all readers
				// contend on the same data.
				if _, ok := c.Get(keyset[i%keys]); !ok {
					panic("hot cache miss")
				}
				i++
			}
		}(r)
	}
	ready.Wait()
	cpu0, wall0 := processCPU(t), time.Now()
	close(start)
	done.Wait()
	wall := time.Since(wall0)
	return float64(readers*opsPerReader) / wall.Seconds(), float64(processCPU(t)-cpu0) / float64(wall)
}

// processCPU returns the user+system CPU time the process has used.
func processCPU(t *testing.T) time.Duration {
	t.Helper()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
