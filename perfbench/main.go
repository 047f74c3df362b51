// Command perfbench is the repository's benchmark. It measures the
// simulator's own cost on the paper's E1 point and real bytes through
// a bsfsd-style server over loopback TCP, checks every output, and
// prints one JSON result line.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload wire-bulk --seed 1 --seconds 10 --trace 0
//
// Workloads: sim-e1, wire-bulk, wire-records (see perfbench/README.md).
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics of a traced run, whose
// spans are written under --workdir.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	workdir  string
}

// metric is one named, unit-bearing number of the result.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what a workload run produced.
type outcome struct {
	attempted, failed int64
	checkErr          error // first output mismatch or failed op
	metrics           map[string]metric
	report            []string // human-readable lines printed before the result
}

func (o *outcome) set(name, unit string, v float64) {
	if o.metrics == nil {
		o.metrics = make(map[string]metric)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	o.metrics[name] = metric{Value: v, Unit: unit}
}

func (o *outcome) note(format string, args ...any) {
	o.report = append(o.report, fmt.Sprintf(format, args...))
}

// fail records a failed check, keeping the first.
func (o *outcome) fail(err error) {
	if err != nil && o.checkErr == nil {
		o.checkErr = err
	}
}

var workloads = map[string]func(config) (*outcome, error){
	"sim-e1":       runSimE1,
	"wire-bulk":    runWireBulk,
	"wire-records": runWireRecords,
}

func main() { os.Exit(run()) }

func run() int {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: sim-e1, wire-bulk or wire-records")
	flag.Uint64Var(&cfg.seed, "seed", 1, "input seed")
	flag.IntVar(&cfg.seconds, "seconds", 10, "nominal measured seconds; sets the fixed amount of work per run")
	flag.IntVar(&trace, "trace", 0, "1: traced run reporting per-layer metrics")
	flag.StringVar(&cfg.workdir, "workdir", filepath.Join(".bench_build", "perfbench"), "directory for store backends and trace output")
	flag.Parse()
	cfg.trace = trace != 0
	w, ok := workloads[cfg.workload]
	if !ok || cfg.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (sim-e1, wire-bulk, wire-records), --seconds >= 1 and --trace 0|1\n")
		return 2
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	out, err := w(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	for _, line := range out.report {
		fmt.Println("#", line)
	}
	if out.checkErr != nil {
		fmt.Println("# CHECK FAILED:", out.checkErr)
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{out.checkErr == nil, out.attempted, out.failed, out.metrics}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if out.checkErr != nil {
		return 1
	}
	return 0
}

// units is the fixed number of work units a run does: seconds at a
// nominal duration per unit, at least one. Fixing the work (rather
// than running until a deadline) keeps memory and every per-run count
// comparable across runs and commits.
func units(seconds int, nominalSeconds float64) int {
	return max(1, int(math.Round(float64(seconds)/nominalSeconds)))
}

// endToEnd sets the metrics every workload reports untraced.
func (o *outcome) endToEnd(setupS []float64, cpuMsPerMB, writeMBps, readMBps, opP50Ms float64) error {
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	o.set("setup_s", "s", median(setupS))
	o.set("peak_rss_mb", "MB", rss)
	o.set("cpu_ms_per_mb", "ms/MB", cpuMsPerMB)
	o.set("write_mbps", "MB/s", writeMBps)
	o.set("read_mbps", "MB/s", readMBps)
	o.set("op_p50_ms", "ms", opP50Ms)
	o.note("setup_s %.4f s (median of %d set-ups)", median(setupS), len(setupS))
	o.note("peak_rss_mb %.1f MB", rss)
	o.note("failed_frac %.4f (%d of %d ops)", float64(o.failed)/float64(max(o.attempted, 1)), o.failed, o.attempted)
	return nil
}

// layers holds what a traced pass measured, for the per-layer metrics.
type layers struct {
	env        *tracedEnv
	before     envCounts // counters when the traced pass started
	spans      *spanLog
	mem        memCounters
	profile    []byte
	cpuMs      float64
	wallS      float64
	ops        int64
	readBytes  int64 // user bytes returned
	writeBytes int64 // user bytes written
	wireBytes  int64 // loopback socket bytes, both directions
	conns      int64
	liveBytes  int64 // user bytes the deployment holds
	diskBytes  int64 // backend directory size
	hits       uint64
	misses     uint64
	evictions  uint64
	memBytes   int64
	// baseCPUPerMB is the untraced pass's CPU per MB, for the overhead.
	baseCPUPerMB float64
}

// profiled runs fn under the CPU profiler and the runtime counters.
func (l *layers) profiled(fn func()) error {
	var buf bytes.Buffer
	m0 := readMem()
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	w := startWatch()
	fn()
	wall, cpu := w.stop()
	pprof.StopCPUProfile()
	l.mem = readMem().sub(m0)
	l.profile = buf.Bytes()
	l.cpuMs, l.wallS = ms(cpu), wall.Seconds()
	return nil
}

// perLayer sets every per-layer metric; the ones a workload has no
// layer for read 0 (see README.md for which apply where).
func (o *outcome) perLayer(cfg config, l *layers, sim *simPoint) error {
	shares, samples, err := moduleShares(l.profile)
	if err != nil {
		return err
	}
	c := l.env.snapshot().sub(l.before)
	ops := float64(max(l.ops, 1))
	moved := float64(l.readBytes + l.writeBytes)
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	o.set("simnet.charges", "count", float64(c.flows))
	o.set("simnet.peak_inflight", "count", float64(l.env.peakInflight.Load()))
	o.set("simnet.cpu_us_per_charge", "us", ratio(l.cpuMs*1e3*shares["simnet"], float64(c.flows)))
	var virtualS, speed, virtualMBps float64
	if sim != nil {
		virtualS, virtualMBps = sim.virtual.Seconds(), sim.perClientMBps
		speed = ratio(virtualS, sim.wall.Seconds())
	}
	o.set("sim.virtual_s", "s", virtualS)
	o.set("sim.speed", "s/s", speed)
	o.set("sim.virtual_mbps_per_client", "MB/s", virtualMBps)
	o.set("rpcnet.wire_bytes_per_byte", "ratio", ratio(float64(l.wireBytes), moved))
	o.set("rpcnet.conns", "count", float64(l.conns))
	o.set("go.mallocs", "count", float64(l.mem.mallocs))
	o.set("go.gc_cycles", "count", float64(l.mem.gcCycles))
	o.set("go.alloc_bytes_per_byte", "ratio", ratio(float64(l.mem.allocBytes), moved))
	o.set("core.read_amp", "ratio", ratio(float64(c.bytes[roleProvider][kindGather]), float64(l.readBytes)))
	o.set("core.write_amp", "ratio", ratio(float64(c.bytes[roleProvider][kindScatter]), float64(l.writeBytes)))
	// The simulator testbed co-locates the version manager and the
	// namespace on node 0 and the DHT on provider nodes, so these
	// per-role counts exist only on the wire deployment.
	wire := sim == nil
	perOp := func(v int64) float64 {
		if !wire {
			return 0
		}
		return float64(v) / ops
	}
	o.set("core.vm_rtt_per_op", "count", perOp(c.count[roleVM][kindRTT]))
	o.set("core.prov_rtt_per_op", "count", float64(c.count[roleProvider][kindRTT])/ops)
	o.set("dht.rtt_per_op", "count", perOp(c.count[roleDHT][kindRTT]))
	o.set("dht.bytes_per_op", "B", perOp(c.bytes[roleDHT][kindScatter]+c.bytes[roleDHT][kindGather]))
	o.set("bsfs.ns_rtt_per_op", "count", perOp(c.count[roleNamespace][kindRTT]))
	o.set("pagestore.hits", "count", float64(l.hits))
	o.set("pagestore.misses", "count", float64(l.misses))
	o.set("pagestore.evictions", "count", float64(l.evictions))
	o.set("pagestore.mem_bytes_per_live_byte", "ratio", ratio(float64(l.memBytes), float64(l.liveBytes)))
	o.set("store.flushed_bytes_per_byte_written", "ratio", ratio(float64(c.bytes[roleProvider][kindDiskWrite]), float64(l.writeBytes)))
	o.set("store.disk_bytes_per_live_byte", "ratio", ratio(float64(l.diskBytes), float64(l.liveBytes)))
	for _, m := range cpuModules {
		o.set("cpu."+m+"_frac", "frac", shares[m])
	}
	o.set("cpu.samples", "count", float64(samples))
	cpuPerMB := ratio(l.cpuMs, moved/mib)
	o.set("trace.overhead_frac", "frac", ratio(cpuPerMB, l.baseCPUPerMB)-1)

	envTime, linked, total := l.spans.blocked()
	o.set("trace.spans", "count", float64(total))
	o.set("trace.linked_frac", "frac", ratio(float64(linked), float64(total)))
	var roles []string
	for r := range numRoles {
		if envTime[r] > 0 {
			roles = append(roles, fmt.Sprintf("%s %.3fs", r, envTime[r].Seconds()))
		}
	}
	sort.Strings(roles)
	o.note("env time blocked in charges, by peer role: %v", roles)
	o.note("traced pass: %.3f s wall, %.1f ms CPU, %.4g ms CPU/MB (untraced %.4g ms CPU/MB)", l.wallS, l.cpuMs, cpuPerMB, l.baseCPUPerMB)

	path := filepath.Join(cfg.workdir, fmt.Sprintf("trace-%s-seed%d.jsonl", cfg.workload, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := l.spans.writeTo(f)
	if err := f.Close(); werr == nil {
		werr = err
	}
	if werr != nil {
		return werr
	}
	o.note("spans written to %s", path)
	return nil
}
