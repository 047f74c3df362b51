package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/rpcnet"
)

// ---------------------------------------------------------------------
// sim-e1

// simNominal is the nominal wall seconds of one E1 point.
const simNominal = 2.5

// e1MB is the simulated data of one phase (load or read), in MB.
var e1MB = float64(int64(e1.Clients)*e1.BytesPerClient) / mib

func runSimE1(cfg config) (*outcome, error) {
	o := &outcome{}
	if cfg.trace {
		return o, traceSimE1(cfg, o)
	}
	// A point's set-up is building the testbed and the load phase that
	// writes the files its clients then read.
	var setupS, wallS, cpuS, writeMBps, readMBps, virt []float64
	n := units(cfg.seconds, simNominal)
	for range n {
		runtime.GC() // start every point from a collected heap
		w := startWatch()
		bed, err := newSimBed(nil)
		if err != nil {
			return nil, err
		}
		buildWall, buildCPU := w.stop()
		pt, err := runSimPoint(bed, nil)
		o.attempted += pt.ops
		o.failed += pt.failed
		o.fail(err)
		setupS = append(setupS, (buildWall + pt.loadWall).Seconds())
		wallS = append(wallS, (buildWall + pt.wall).Seconds())
		cpuS = append(cpuS, (buildCPU + pt.cpu).Seconds())
		writeMBps = append(writeMBps, e1MB/pt.loadWall.Seconds())
		readMBps = append(readMBps, e1MB/pt.readWall.Seconds())
		virt = append(virt, pt.perClientMBps)
	}
	// The reference point: bench's own E1 at the same parameters.
	ref, err := bench.RunReadDistinct(e1)
	if err != nil {
		return nil, fmt.Errorf("reference E1 point: %w", err)
	}
	for _, v := range virt {
		o.fail(checkE1(v, ref.PerClientMBps))
	}
	o.note("sim-e1: %d clients x %d MiB, %d nodes, %d MiB provider cache; %d points", e1.Clients, e1.BytesPerClient/mib, e1.Spec.Nodes, e1.Storage.MemCapacity/mib, n)
	o.note("sim_wall_s %.4f s (median; min %.4f, max %.4f, n=%d)", median(wallS), quantile(wallS, 0), quantile(wallS, 1), len(wallS))
	o.note("sim_cpu_s %.4f s (median; min %.4f, max %.4f, n=%d)", median(cpuS), quantile(cpuS, 0), quantile(cpuS, 1), len(cpuS))
	o.note("virtual per-client MB/s %.3f (min %.3f, max %.3f); bench.RunReadDistinct %.3f; tolerance %.0f%%",
		median(virt), quantile(virt, 0), quantile(virt, 1), ref.PerClientMBps, e1Tolerance*100)
	return o, o.endToEnd(setupS, median(cpuS)*1e3/(2*e1MB), median(writeMBps), median(readMBps), median(wallS)*1e3)
}

// A traced run first runs the workload untraced twice: the first unit
// warms the process (heap growth, first page faults), the second is
// the baseline the tracing overhead is measured against. Then one unit
// runs traced.

// traceSimE1 runs the reference point (the warm-up and the check), an
// untraced composed point, then a composed point on a wrapped Env
// under the profiler.
func traceSimE1(cfg config, o *outcome) error {
	ref, err := bench.RunReadDistinct(e1)
	if err != nil {
		return fmt.Errorf("reference E1 point: %w", err)
	}
	bed, err := newSimBed(nil)
	if err != nil {
		return err
	}
	base, err := runSimPoint(bed, nil)
	o.fail(err)
	o.fail(checkE1(base.perClientMBps, ref.PerClientMBps))

	runtime.GC()
	l := &layers{spans: newSpanLog(), baseCPUPerMB: ms(base.cpu) / (2 * e1MB)}
	bed, err = newSimBed(func(e cluster.Env) cluster.Env {
		l.env = newTracedEnv(e, e1Roles(), l.spans)
		return l.env
	})
	if err != nil {
		return err
	}
	var pt simPoint
	var runErr error
	if err := l.profiled(func() { pt, runErr = runSimPoint(bed, l.spans) }); err != nil {
		return err
	}
	o.attempted, o.failed = base.ops+pt.ops, base.failed+pt.failed
	o.fail(runErr)
	o.fail(checkE1(pt.perClientMBps, ref.PerClientMBps))
	l.ops = pt.ops
	l.readBytes = int64(e1.Clients) * e1.BytesPerClient
	l.writeBytes = l.readBytes
	l.liveBytes = l.readBytes
	l.hits, l.misses, l.evictions, l.memBytes = storeStats(bed.dep)
	o.note("traced point: virtual per-client %.3f MB/s (reference %.3f)", pt.perClientMBps, ref.PerClientMBps)
	return o.perLayer(cfg, l, &pt)
}

// ---------------------------------------------------------------------
// wire-bulk

// Each wire-bulk unit starts a fresh RAM-only server, warms it with a
// 16 MiB put and get (connection, gob type caches, buffer pools), then
// times one 128 MiB put and get. The server keeps every version it
// stores, so a fresh server per unit bounds the run's memory and gives
// every unit the same starting state.

// bulkNominal is the nominal wall seconds of one unit.
const bulkNominal = 3.5

// bulkUnit runs unit i. l, when non-nil, traces the timed calls.
func bulkUnit(cfg config, i int, data []byte, l *layers) (setup time.Duration, f bulkFile, err error) {
	runtime.GC() // start every unit from a collected heap
	fillSeeded(data, cfg.seed, uint64(i))
	w := startWatch()
	var spans *spanLog
	if l != nil {
		spans = l.spans
	}
	srv, err := startServer("", spans)
	if err != nil {
		return 0, f, err
	}
	defer func() {
		if serr := srv.stop(); err == nil {
			err = serr
		}
	}()
	c, err := rpcnet.Dial(srv.addr)
	if err != nil {
		return 0, f, fmt.Errorf("dial: %w", err)
	}
	defer c.Close()
	if warm := putGet(c, "/bulk/warm", data[:bulkWarmSize], nil, nil); warm.err != nil {
		return 0, f, fmt.Errorf("warm-up: %w", warm.err)
	}
	setup, _ = w.stop()
	path := fmt.Sprintf("/bulk/f%04d", i)
	if l == nil {
		return setup, putGet(c, path, data, nil, nil), nil
	}
	l.env, l.before = srv.env, srv.env.snapshot()
	wire0 := srv.counted.bytes()
	if err := l.profiled(func() { f = putGet(c, path, data, spans, srv.env) }); err != nil {
		return 0, f, err
	}
	l.wireBytes = srv.counted.bytes() - wire0
	l.conns = srv.counted.conns.Load()
	l.hits, l.misses, l.evictions, l.memBytes = storeStats(srv.dep)
	l.ops = f.ops
	if f.err == nil {
		l.writeBytes, l.readBytes = bulkFileSize, bulkFileSize
	}
	l.liveBytes = bulkFileSize + bulkWarmSize
	return setup, f, nil
}

func runWireBulk(cfg config) (*outcome, error) {
	o := &outcome{}
	data := make([]byte, bulkFileSize)
	if cfg.trace {
		return o, traceWireBulk(cfg, o, data)
	}
	n := units(cfg.seconds, bulkNominal)
	var setupS, putMBps, getMBps, fileMs, cpuPerMB []float64
	for i := range n {
		setup, f, err := bulkUnit(cfg, i, data, nil)
		if err != nil {
			return nil, err
		}
		o.attempted += f.ops
		o.failed += f.failed
		o.fail(f.err)
		if f.err != nil {
			continue
		}
		setupS = append(setupS, setup.Seconds())
		putMBps = append(putMBps, bulkFileSize/mib/(f.putMs/1e3))
		getMBps = append(getMBps, bulkFileSize/mib/(f.getMs/1e3))
		fileMs = append(fileMs, f.putMs+f.getMs)
		cpuPerMB = append(cpuPerMB, f.cpuMs/(2*bulkFileSize/mib))
	}
	o.note("wire-bulk: %d units, each a fresh server and one %d MiB file put then got over one connection", n, bulkFileSize/mib)
	o.note("put_mbps %.2f MB/s (median over %d files; min %.2f, max %.2f)", median(putMBps), len(putMBps), quantile(putMBps, 0), quantile(putMBps, 1))
	o.note("get_mbps %.2f MB/s (median over %d files; min %.2f, max %.2f)", median(getMBps), len(getMBps), quantile(getMBps, 0), quantile(getMBps, 1))
	return o, o.endToEnd(setupS, median(cpuPerMB), median(putMBps), median(getMBps), median(fileMs))
}

func traceWireBulk(cfg config, o *outcome, data []byte) error {
	var base bulkFile
	for i := range 2 {
		_, f, err := bulkUnit(cfg, i, data, nil)
		if err != nil {
			return err
		}
		o.attempted += f.ops
		o.failed += f.failed
		o.fail(f.err)
		base = f
	}
	l := &layers{spans: newSpanLog(), baseCPUPerMB: base.cpuMs / (2 * bulkFileSize / mib)}
	_, f, err := bulkUnit(cfg, 2, data, l)
	if err != nil {
		return err
	}
	o.attempted += f.ops
	o.failed += f.failed
	o.fail(f.err)
	return o.perLayer(cfg, l, nil)
}

// ---------------------------------------------------------------------
// wire-records

// Each wire-records unit starts a fresh server whose providers persist
// to a disk: backend under the work dir (the shipped flush policy),
// preloads the 128 MiB input file and an empty shared log, runs the
// closed loop, and reads the log back to check it.

// recordsOpsPerWorker is each worker's op count per unit: with one op
// in ten a read, two workers issue 1800 appends and 200 reads, so the
// append p99 and the read p95 each have at least ten samples beyond
// them in every unit.
const recordsOpsPerWorker = 1000

// recordsNominal is the nominal wall seconds of one unit.
const recordsNominal = 7.0

// recordsUnit runs unit k. l, when non-nil, traces the closed loop.
func recordsUnit(cfg config, k int, input []byte, l *layers) (setup time.Duration, p recordsPass, err error) {
	runtime.GC() // start every unit from a collected heap
	w := startWatch()
	dir, err := filepath.Abs(filepath.Join(cfg.workdir, fmt.Sprintf("records-%d-%d", os.Getpid(), k)))
	if err != nil {
		return 0, p, err
	}
	if err := os.RemoveAll(dir); err != nil {
		return 0, p, err
	}
	defer func() {
		if rerr := os.RemoveAll(dir); err == nil {
			err = rerr
		}
	}()
	var spans *spanLog
	if l != nil {
		spans = l.spans
	}
	srv, err := startServer("disk:"+dir, spans)
	if err != nil {
		return 0, p, err
	}
	defer func() {
		if serr := srv.stop(); err == nil {
			err = serr
		}
	}()
	var clients []*rpcnet.Client
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()
	for range recWorkers {
		c, err := rpcnet.Dial(srv.addr)
		if err != nil {
			return 0, p, fmt.Errorf("dial: %w", err)
		}
		clients = append(clients, c)
	}
	if err := clients[0].Put(recInput, input); err != nil {
		return 0, p, fmt.Errorf("preload input: %w", err)
	}
	if err := clients[0].Put(recLog, nil); err != nil {
		return 0, p, fmt.Errorf("create log: %w", err)
	}
	setup, _ = w.stop()

	if l == nil {
		p = runRecords(clients, input, cfg.seed, recordsOpsPerWorker, nil, nil)
	} else {
		if err := flushAll(srv); err != nil {
			return 0, p, err
		}
		l.env, l.before = srv.env, srv.env.snapshot()
		wire0 := srv.counted.bytes()
		if err := l.profiled(func() { p = runRecords(clients, input, cfg.seed, recordsOpsPerWorker, spans, srv.env) }); err != nil {
			return 0, p, err
		}
		l.wireBytes = srv.counted.bytes() - wire0
		l.conns = srv.counted.conns.Load()
		l.hits, l.misses, l.evictions, l.memBytes = storeStats(srv.dep)
		if err := flushAll(srv); err != nil {
			return 0, p, err
		}
		if l.diskBytes, err = dirBytes(dir); err != nil {
			return 0, p, err
		}
		l.ops = int64(len(p.appendMs) + len(p.readMs))
		l.writeBytes, l.readBytes = p.appendBytes, p.readBytes
		l.liveBytes = recInputSize + p.appendBytes
	}
	if p.err == nil {
		p.err = verifyLog(clients[0], cfg.seed, p)
	}
	return setup, p, nil
}

// verifyLog reads the shared log back and checks it against the
// pass's acknowledged appends.
func verifyLog(c *rpcnet.Client, seed uint64, p recordsPass) error {
	data, err := c.Get(recLog, 0)
	if err != nil {
		return fmt.Errorf("read back log: %w", err)
	}
	return checkLog(data, seed, p.acked, p.unknown)
}

func runWireRecords(cfg config) (*outcome, error) {
	o := &outcome{}
	input := make([]byte, recInputSize)
	fillSeeded(input, cfg.seed, 1<<41)
	if cfg.trace {
		return o, traceWireRecords(cfg, o, input)
	}
	n := units(cfg.seconds, recordsNominal)
	var setupS, cpuPerMB, appendMBps, readMBps, opsPerS, unitP50, appendMs, readMs []float64
	for k := range n {
		setup, p, err := recordsUnit(cfg, k, input, nil)
		if err != nil {
			return nil, err
		}
		o.attempted += int64(recWorkers * recordsOpsPerWorker)
		o.failed += p.failed
		o.fail(p.err)
		wallS := p.wall / 1e3
		setupS = append(setupS, setup.Seconds())
		cpuPerMB = append(cpuPerMB, p.cpu/(float64(p.appendBytes+p.readBytes)/mib))
		appendMBps = append(appendMBps, float64(p.appendBytes)/mib/wallS)
		readMBps = append(readMBps, float64(p.readBytes)/mib/wallS)
		opsPerS = append(opsPerS, float64(len(p.appendMs)+len(p.readMs))/wallS)
		unitP50 = append(unitP50, median(p.appendMs))
		appendMs = append(appendMs, p.appendMs...)
		readMs = append(readMs, p.readMs...)
	}
	tailA, appendTail := tailQuantile(appendMs)
	tailR, readTail := tailQuantile(readMs)
	o.note("wire-records: %d units, each %d connections in a closed loop, %d ops per connection (1 in %d a %d KiB read of a %d MiB input, the rest %d B appends to one log)",
		n, recWorkers, recordsOpsPerWorker, recReadEvery, recReadSize>>10, recInputSize/mib, recSize)
	o.note("append_p50_ms %.3f ms, append_%s_ms %.3f ms (n=%d; per-unit p50 %.3f)", median(appendMs), tailA, appendTail, len(appendMs), unitP50)
	o.note("read_p50_ms %.3f ms, read_%s_ms %.3f ms (n=%d)", median(readMs), tailR, readTail, len(readMs))
	o.note("ops_per_s %.1f (median over %d units)", median(opsPerS), n)
	return o, o.endToEnd(setupS, median(cpuPerMB), median(appendMBps), median(readMBps), median(appendMs))
}

func traceWireRecords(cfg config, o *outcome, input []byte) error {
	var base recordsPass
	for k := range 2 {
		_, p, err := recordsUnit(cfg, k, input, nil)
		if err != nil {
			return err
		}
		o.attempted += int64(recWorkers * recordsOpsPerWorker)
		o.failed += p.failed
		o.fail(p.err)
		base = p
	}
	l := &layers{spans: newSpanLog(), baseCPUPerMB: base.cpu / (float64(base.appendBytes+base.readBytes) / mib)}
	_, p, err := recordsUnit(cfg, 2, input, l)
	if err != nil {
		return err
	}
	o.attempted += int64(recWorkers * recordsOpsPerWorker)
	o.failed += p.failed
	o.fail(p.err)
	return o.perLayer(cfg, l, nil)
}

// flushAll persists every provider's dirty pages, so flushed-byte
// counts cover exactly the writes between two calls.
func flushAll(srv *wireServer) error {
	for _, p := range srv.dep.ProviderList() {
		if err := p.FlushNow(); err != nil {
			return fmt.Errorf("flush: %w", err)
		}
	}
	return nil
}
