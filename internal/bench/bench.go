// Package bench is the experiment harness that regenerates the paper's
// evaluation (§IV): the three microbenchmarks (E1-E3), the two
// application benchmarks (E4-E5), the extensions (X1-X8) and the
// ablations (A1-A4, A7). Each run builds a fresh simulated
// Grid'5000-style cluster, deploys BSFS or HDFS on it, drives the
// paper's workload and reports throughput or job completion time.
package bench

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/bsfs"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fsapi"
	"repro/internal/hdfs"
	"repro/internal/placement"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/traffic"
)

// Byte units re-exported for workload sizing.
const (
	KB = simnet.KB
	MB = simnet.MB
	GB = simnet.GB
)

// ClusterSpec sizes the simulated testbed. The defaults reproduce the
// paper's setup: 270 nodes, node 0 hosting the masters (version
// manager, provider manager, namespace manager / namenode, jobtracker)
// and nodes 1..269 hosting providers/datanodes and clients.
type ClusterSpec struct {
	Nodes int
	// MetaNodes is the number of metadata (DHT) providers for BSFS,
	// spread evenly over the storage nodes (default 24).
	MetaNodes int
}

func (s *ClusterSpec) fillDefaults() {
	if s.Nodes <= 0 {
		s.Nodes = 270
	}
	if s.MetaNodes <= 0 {
		s.MetaNodes = 24
	}
	if s.MetaNodes > s.Nodes-1 {
		s.MetaNodes = s.Nodes - 1
	}
}

// StorageOpts selects and tunes the storage layer under test.
type StorageOpts struct {
	// Kind is "bsfs" or "hdfs".
	Kind string
	// Replication is the data replica count (default 1, matching the
	// paper's throughput-focused deployment; 3 reproduces HDFS's
	// default pipeline).
	Replication int
	// PageSize is BlobSeer's page size (default 256 KiB).
	PageSize int64
	// BlockSize is the BSFS block / HDFS chunk size (default 64 MiB).
	BlockSize int64
	// MemCapacity bounds each storage node's RAM cache (default
	// 512 MiB — the knob that decides how much of a re-read comes off
	// disk).
	MemCapacity int64
	// Store selects the persistent backend tier beneath each storage
	// node's RAM cache ("disk:<path>", "mem:", "null:" — see
	// internal/store), scoped per member. Empty means RAM-only storage
	// nodes (the default for throughput experiments; the X7 tiered-
	// recovery experiment sets a disk spec).
	Store string
	// LocalFirstPlacement grafts HDFS's placement policy onto BlobSeer
	// (ablation A1).
	LocalFirstPlacement bool
	// DisableClientCache turns off BSFS's client-side block cache
	// (ablation A2).
	DisableClientCache bool
	// RAMDatanodes disables HDFS's write-through pipeline (ablation
	// A4): datanodes buffer chunks in RAM like BlobSeer providers.
	RAMDatanodes bool
	// MaxInFlightBlocks overrides the BSFS writer pipeline depth
	// (0 keeps the bsfs default).
	MaxInFlightBlocks int
	// VMShards is the version-manager shard count (0/1 = the paper's
	// single centralized manager on node 0; more spreads shards over
	// the storage nodes and partitions blobs across them by id).
	VMShards int
	// VMServiceTime models each version-manager shard's per-RPC
	// processing occupancy (requests to one shard queue for this long
	// on its processor). 0 disables; the X5/A7 shard experiments set it
	// to make the version-manager tier the measured bottleneck.
	VMServiceTime time.Duration
}

func (o *StorageOpts) fillDefaults() {
	if o.Replication < 1 {
		o.Replication = 1
	}
	if o.PageSize <= 0 {
		o.PageSize = 256 * KB
	}
	if o.BlockSize <= 0 {
		o.BlockSize = 64 * MB
	}
	if o.MemCapacity == 0 {
		o.MemCapacity = 512 * MB
	}
}

// Testbed is one simulated cluster with a storage deployment.
type Testbed struct {
	Spec ClusterSpec
	Eng  *sim.Engine
	Net  *simnet.Network
	Env  *cluster.Sim
	// NewFS returns a storage client bound to a node.
	NewFS func(node cluster.NodeID) fsapi.FileSystem
	// Kind echoes the storage under test.
	Kind string

	bsfsSvc *bsfs.Service
	hdfsDep *hdfs.Deployment
}

// storageNodes lists nodes 1..N-1 (node 0 is the master host).
func storageNodes(n int) []cluster.NodeID {
	out := make([]cluster.NodeID, n-1)
	for i := range out {
		out[i] = cluster.NodeID(i + 1)
	}
	return out
}

// NewTestbed builds a fresh simulated cluster with the requested
// storage system deployed.
func NewTestbed(spec ClusterSpec, opts StorageOpts) (*Testbed, error) {
	spec.fillDefaults()
	opts.fillDefaults()
	eng := sim.NewEngine()
	net := simnet.New(eng, simnet.Grid5000(spec.Nodes))
	env := cluster.NewSim(net)
	tb := &Testbed{Spec: spec, Eng: eng, Net: net, Env: env, Kind: opts.Kind}

	nodes := storageNodes(spec.Nodes)
	switch opts.Kind {
	case "bsfs":
		meta := make([]cluster.NodeID, 0, spec.MetaNodes)
		step := len(nodes) / spec.MetaNodes
		if step < 1 {
			step = 1
		}
		for i := 0; i < len(nodes) && len(meta) < spec.MetaNodes; i += step {
			meta = append(meta, nodes[i])
		}
		var strategy placement.Strategy
		if opts.LocalFirstPlacement {
			strategy = placement.NewLocalFirst(nodes)
		}
		// Version-manager shards: shard 0 on the master node (node 0,
		// the paper's placement), extra shards spread evenly over the
		// storage nodes.
		shards := opts.VMShards
		if shards < 1 {
			shards = 1
		}
		vmNodes := []cluster.NodeID{0}
		for i := 1; i < shards; i++ {
			vmNodes = append(vmNodes, nodes[(i*len(nodes))/shards])
		}
		dep, err := core.NewDeployment(env, core.Options{
			PageSize:      opts.PageSize,
			Replication:   opts.Replication,
			VMNode:        0,
			VMNodes:       vmNodes,
			VMServiceTime: opts.VMServiceTime,
			ProviderNodes: nodes,
			MetaNodes:     meta,
			Strategy:      strategy,
			Provider:      core.ProviderConfig{MemCapacity: opts.MemCapacity, Store: opts.Store},
		})
		if err != nil {
			return nil, err
		}
		tb.bsfsSvc = bsfs.NewService(dep, bsfs.Config{
			NamespaceNode:     0,
			BlockSize:         opts.BlockSize,
			DisableCache:      opts.DisableClientCache,
			MaxInFlightBlocks: opts.MaxInFlightBlocks,
		})
		tb.NewFS = func(n cluster.NodeID) fsapi.FileSystem { return tb.bsfsSvc.NewFS(n) }
	case "hdfs":
		dep, err := hdfs.NewDeployment(env, hdfs.Config{
			NameNode:     0,
			DataNodes:    nodes,
			ChunkSize:    opts.BlockSize,
			Replication:  opts.Replication,
			MemCapacity:  opts.MemCapacity,
			Store:        opts.Store,
			WriteThrough: !opts.RAMDatanodes,
		})
		if err != nil {
			return nil, err
		}
		tb.hdfsDep = dep
		tb.NewFS = func(n cluster.NodeID) fsapi.FileSystem { return dep.NewFS(n) }
	default:
		return nil, fmt.Errorf("bench: unknown storage kind %q", opts.Kind)
	}
	return tb, nil
}

// Deployment returns the BSFS core deployment (nil for hdfs testbeds):
// experiments that restart providers or inspect stores reach it here.
func (tb *Testbed) Deployment() *core.Deployment {
	if tb.bsfsSvc == nil {
		return nil
	}
	return tb.bsfsSvc.Deployment()
}

// Close releases the storage-node stores (their backends, when
// StorageOpts.Store is set). It only touches files — no simulated-time
// operations — so it is safe to call after the engine has drained.
// RAM-only testbeds need no Close.
func (tb *Testbed) Close() error {
	var first error
	if tb.bsfsSvc != nil {
		for _, p := range tb.bsfsSvc.Deployment().ProviderList() {
			p.Stop()
			if err := p.Store().Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	if tb.hdfsDep != nil {
		if err := tb.hdfsDep.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// clientNodes spreads n clients over the storage nodes (clients are
// colocated with providers/datanodes, as on the paper's testbed).
func (tb *Testbed) clientNodes(n int) []cluster.NodeID {
	avail := tb.Spec.Nodes - 1
	out := make([]cluster.NodeID, n)
	for i := range out {
		out[i] = cluster.NodeID(1 + (i*avail)/n)
	}
	return out
}

// loaderNode pairs every client with a distant loader: the node half a
// ring away, so pre-loaded data is never local to its reader.
func (tb *Testbed) loaderNode(client cluster.NodeID) cluster.NodeID {
	avail := tb.Spec.Nodes - 1
	return cluster.NodeID(1 + (int(client)-1+avail/2)%avail)
}

// Run executes body as the simulation's root process and drives the
// engine to completion.
func (tb *Testbed) Run(body func()) error {
	tb.Eng.Go(body)
	return tb.Eng.Run()
}

// firstError keeps the first error reported by a run's sim processes,
// which are real goroutines between engine blocking points.
type firstError struct {
	mu  sync.Mutex
	err error
}

// set records err unless an earlier error is kept; nil is ignored.
func (f *firstError) set(err error) {
	f.mu.Lock()
	if f.err == nil {
		f.err = err
	}
	f.mu.Unlock()
}

func (f *firstError) get() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

// Point is one measured sweep point of a microbenchmark.
type Point struct {
	Experiment string
	Kind       string
	Clients    int
	// PerClientMBps is the mean per-client throughput; Min/Max bound
	// the distribution (the paper reports stability under concurrency).
	PerClientMBps float64
	MinMBps       float64
	MaxMBps       float64
	AggregateMBps float64
	// Duration is the makespan of the measured phase.
	Duration time.Duration
	// NetBytes / DiskBytes are the fabric resources consumed during
	// the measured phase (mechanism evidence: who hit disks, who moved
	// bytes).
	NetBytes  int64
	DiskBytes int64
	// P50/P90/P99 are quantiles of the per-client (or per-op, for
	// latency-oriented experiments like X8) completion-time
	// distribution — the tail the throughput means hide.
	P50 time.Duration
	P90 time.Duration
	P99 time.Duration
}

// resourceSnapshot sums the simnet counters.
func resourceSnapshot(tb *Testbed) (net, disk int64) {
	s := tb.Net.Stats()
	for i := range s.BytesUp {
		net += s.BytesUp[i]
		disk += s.BytesDisk[i]
	}
	return net, disk
}

func mbps(bytes int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / d.Seconds() / float64(MB)
}

// summarize builds a Point from per-client durations.
func summarize(exp, kind string, perClient int64, durations []time.Duration, makespan time.Duration) Point {
	p := Point{Experiment: exp, Kind: kind, Clients: len(durations), Duration: makespan}
	if len(durations) == 0 {
		return p
	}
	var sum float64
	for i, d := range durations {
		t := mbps(perClient, d)
		sum += t
		if i == 0 || t < p.MinMBps {
			p.MinMBps = t
		}
		if i == 0 || t > p.MaxMBps {
			p.MaxMBps = t
		}
	}
	p.PerClientMBps = sum / float64(len(durations))
	p.AggregateMBps = mbps(perClient*int64(len(durations)), makespan)
	p.P50, p.P90, p.P99 = traffic.Quantiles(durations)
	return p
}
