package main

import (
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/bsfs"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fsapi"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// sim-e1 is the paper's E1 point (concurrent reads of distinct files)
// for BSFS, composed from the same public constructors bench.NewTestbed
// and bench.RunReadDistinct use, so the benchmark can hand core a
// wrapped Env. Data is synthetic (size-only), so the simulator's own
// cost — the sim engine and the simnet solver — is what the wall clock
// measures.
var e1 = bench.MicroOpts{
	Clients:        100,
	BytesPerClient: 128 * bench.MB,
	Spec:           bench.ClusterSpec{Nodes: 120, MetaNodes: 24},
	Storage: bench.StorageOpts{
		Kind:        "bsfs",
		Replication: 1,
		PageSize:    256 * bench.KB,
		BlockSize:   64 * bench.MB,
		MemCapacity: 48 * bench.MB,
	},
}

// e1Settle mirrors bench's pause between the load and measured phases,
// which lets the flush daemons drain before readers start.
const e1Settle = 120 * time.Second

// e1Tolerance bounds the relative difference between a composed
// point's virtual per-client MB/s and bench.RunReadDistinct's. The
// simulator is not bit-deterministic (its solver iterates a map):
// 130 identical points have read 72.7-75.4 MB/s, a 3.7% range, and the
// tolerance is about twice that.
const e1Tolerance = 0.075

// simBed is one composed testbed.
type simBed struct {
	eng *sim.Engine
	env cluster.Env // the *cluster.Sim, or a tracedEnv around it
	dep *core.Deployment
	fs  func(cluster.NodeID) fsapi.FileSystem
}

// storageNodes and the role map follow bench's layout: node 0 hosts
// the version manager, namespace and placement manager; nodes 1..N-1
// host providers and clients, every (N-1)/MetaNodes-th one also a DHT
// node.
func e1Storage() []cluster.NodeID {
	out := make([]cluster.NodeID, e1.Spec.Nodes-1)
	for i := range out {
		out[i] = cluster.NodeID(i + 1)
	}
	return out
}

func e1Roles() map[cluster.NodeID]role {
	roles := map[cluster.NodeID]role{0: roleMaster}
	for _, n := range e1Storage() {
		roles[n] = roleProvider
	}
	return roles
}

// newSimBed builds the E1 testbed; wrap, when non-nil, wraps the
// simulated Env before any service sees it.
func newSimBed(wrap func(cluster.Env) cluster.Env) (*simBed, error) {
	eng := sim.NewEngine()
	net := simnet.New(eng, simnet.Grid5000(e1.Spec.Nodes))
	var env cluster.Env = cluster.NewSim(net)
	if wrap != nil {
		env = wrap(env)
	}
	nodes := e1Storage()
	var meta []cluster.NodeID
	step := max(len(nodes)/e1.Spec.MetaNodes, 1)
	for i := 0; i < len(nodes) && len(meta) < e1.Spec.MetaNodes; i += step {
		meta = append(meta, nodes[i])
	}
	st := e1.Storage
	dep, err := core.NewDeployment(env, core.Options{
		PageSize:      st.PageSize,
		Replication:   st.Replication,
		VMNode:        0,
		VMNodes:       []cluster.NodeID{0},
		ProviderNodes: nodes,
		MetaNodes:     meta,
		Provider:      core.ProviderConfig{MemCapacity: st.MemCapacity},
	})
	if err != nil {
		return nil, fmt.Errorf("sim-e1 deployment: %w", err)
	}
	svc := bsfs.NewService(dep, bsfs.Config{NamespaceNode: 0, BlockSize: st.BlockSize})
	return &simBed{eng: eng, env: env, dep: dep, fs: func(n cluster.NodeID) fsapi.FileSystem { return svc.NewFS(n) }}, nil
}

// e1Client and e1Loader place client i and the node that preloads its
// file, as bench does: clients spread over the storage nodes, each
// file written from the node half a ring away.
func e1Client(i int) cluster.NodeID {
	avail := e1.Spec.Nodes - 1
	return cluster.NodeID(1 + (i*avail)/e1.Clients)
}

func e1Loader(c cluster.NodeID) cluster.NodeID {
	avail := e1.Spec.Nodes - 1
	return cluster.NodeID(1 + (int(c)-1+avail/2)%avail)
}

// simPoint is one measured E1 point.
type simPoint struct {
	wall, cpu          time.Duration // the whole point, load and read phases
	loadWall, readWall time.Duration
	virtual            time.Duration // simulated load + read time (settle excluded)
	perClientMBps      float64       // virtual, mean over clients
	ops, failed        int64
}

// runSimPoint drives one E1 point on bed. spans, when non-nil, gets an
// op span per client file write and read.
func runSimPoint(bed *simBed, spans *spanLog) (simPoint, error) {
	var pt simPoint
	size := e1.BytesPerClient
	durations := make([]time.Duration, e1.Clients)
	// The engine may run simulated clients on several threads, so the
	// tallies they share are synchronized.
	var mu sync.Mutex
	var ops, failed int64
	var firstErr error
	op := func(name string, node cluster.NodeID, fn func() error) {
		var id uint64
		if spans != nil {
			id = spans.beginOp(name, node, bed.env.Now())
		}
		err := fn()
		mu.Lock()
		ops++
		if err != nil {
			failed++
			if firstErr == nil {
				firstErr = err
			}
		}
		mu.Unlock()
		if spans != nil {
			spans.endOp(id, node, size, bed.env.Now())
		}
	}
	watch := startWatch()
	bed.eng.Go(func() {
		v0 := bed.env.Now()
		wg := bed.env.NewWaitGroup()
		for i := range e1.Clients {
			loader := e1Loader(e1Client(i))
			path := fmt.Sprintf("/e1/f%04d", i)
			wg.Go(func() {
				op("write", loader, func() error { return writeSynth(bed.fs(loader), path, size) })
			})
		}
		wg.Wait()
		pt.loadWall = since(watch.wall0)
		vLoad := bed.env.Now() - v0
		bed.env.Sleep(e1Settle)

		r0, v1 := wallNow(), bed.env.Now()
		wg = bed.env.NewWaitGroup()
		for i := range e1.Clients {
			c := e1Client(i)
			path := fmt.Sprintf("/e1/f%04d", i)
			wg.Go(func() {
				t0 := bed.env.Now()
				op("read", c, func() error { return readSynth(bed.fs(c), path, size) })
				durations[i] = bed.env.Now() - t0
			})
		}
		wg.Wait()
		pt.readWall = since(r0)
		pt.virtual = vLoad + bed.env.Now() - v1
	})
	if err := bed.eng.Run(); err != nil {
		return pt, fmt.Errorf("sim-e1: %w", err)
	}
	pt.wall, pt.cpu = watch.stop()
	pt.ops, pt.failed = ops, failed
	var sum float64
	for _, d := range durations {
		if d > 0 {
			sum += float64(size) / d.Seconds() / float64(bench.MB)
		}
	}
	pt.perClientMBps = sum / float64(e1.Clients)
	return pt, firstErr
}

func writeSynth(fs fsapi.FileSystem, path string, size int64) error {
	w, err := fs.Create(path)
	if err != nil {
		return err
	}
	if _, err := w.WriteSynthetic(size); err != nil {
		w.Close()
		return err
	}
	return w.Close()
}

func readSynth(fs fsapi.FileSystem, path string, size int64) error {
	r, err := fs.Open(path)
	if err != nil {
		return err
	}
	defer r.Close()
	n, err := r.ReadSyntheticAt(0, size)
	if err != nil {
		return err
	}
	if n != size {
		return fmt.Errorf("short read of %s: %d of %d bytes", path, n, size)
	}
	return nil
}

// checkE1 compares a composed point's virtual throughput with the
// reference bench.RunReadDistinct point.
func checkE1(got, ref float64) error {
	if ref <= 0 || math.Abs(got-ref)/ref > e1Tolerance {
		return fmt.Errorf("sim-e1: virtual per-client %.3f MB/s, bench.RunReadDistinct %.3f MB/s (tolerance %.0f%%)", got, ref, e1Tolerance*100)
	}
	return nil
}
