package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"syscall"
	"time"
)

// The benchmark measures real elapsed time, so it reads the host clock.
// Every read goes through wallNow, the one place the walltime rule is
// waived.

// wallNow returns the host's monotonic wall clock.
func wallNow() time.Time {
	return time.Now() //bsfs-vet:allow walltime -- the benchmark measures real elapsed time
}

// since returns the wall time elapsed since t0.
func since(t0 time.Time) time.Duration { return wallNow().Sub(t0) }

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid pointer fails only on a kernel bug.
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stopwatch measures one interval in wall and CPU time.
type stopwatch struct {
	wall0 time.Time
	cpu0  time.Duration
}

func startWatch() stopwatch { return stopwatch{wall0: wallNow(), cpu0: cpuTime()} }

// stop returns the wall and CPU time since the watch started.
func (s stopwatch) stop() (wall, cpu time.Duration) {
	return since(s.wall0), cpuTime() - s.cpu0
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MiB.
// Each benchmark run is its own process, so this is the run's peak.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Bytes()
		if !bytes.HasPrefix(line, []byte("VmHWM:")) {
			continue
		}
		fields := bytes.Fields(line[len("VmHWM:"):])
		if len(fields) < 1 {
			break
		}
		kb, err := strconv.ParseFloat(string(fields[0]), 64)
		if err != nil {
			return 0, fmt.Errorf("parse VmHWM: %w", err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// memCounters is the slice of runtime.MemStats the traced run reports.
type memCounters struct {
	mallocs, allocBytes uint64
	gcCycles            uint32
}

func readMem() memCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memCounters{mallocs: ms.Mallocs, allocBytes: ms.TotalAlloc, gcCycles: ms.NumGC}
}

func (m memCounters) sub(o memCounters) memCounters {
	return memCounters{mallocs: m.mallocs - o.mallocs, allocBytes: m.allocBytes - o.allocBytes, gcCycles: m.gcCycles - o.gcCycles}
}

// median returns the median of xs (NaN when empty).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (NaN when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailQuantile returns the highest of the candidate quantiles that
// leaves at least ten samples beyond it, with its label ("none" when
// even p90 has fewer than ten samples beyond).
func tailQuantile(xs []float64) (label string, v float64) {
	for _, c := range []struct {
		label string
		q     float64
	}{{"p99", 0.99}, {"p95", 0.95}, {"p90", 0.90}} {
		if float64(len(xs))*(1-c.q) >= 10 {
			return c.label, quantile(xs, c.q)
		}
	}
	return "none", 0
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

const mib = 1 << 20
