package bench

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"testing"
	"time"

	"repro/internal/fsapi"
	"repro/internal/mapreduce"
)

// Reduced-scale versions of the paper's experiments: 60 nodes, 128 MB
// per client. The assertions check the paper's qualitative claims
// (who wins, and that BSFS sustains throughput under concurrency), not
// absolute numbers.

func microOpts(kind string, clients int) MicroOpts {
	return MicroOpts{
		Clients:        clients,
		BytesPerClient: 128 * MB,
		Spec:           ClusterSpec{Nodes: 60, MetaNodes: 8},
		// The node cache is scaled with the reduced per-client volume
		// (full-scale runs use 1 GB/client with 512 MB caches; reduced
		// runs keep the same cache:data ratio so re-reads hit disk the
		// same way).
		Storage: StorageOpts{Kind: kind, MemCapacity: 48 * MB},
	}
}

func TestE3WriteBSFSBeatsHDFS(t *testing.T) {
	b, err := RunWriteDistinct(microOpts("bsfs", 20))
	if err != nil {
		t.Fatal(err)
	}
	h, err := RunWriteDistinct(microOpts("hdfs", 20))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("E3 writes: bsfs %.1f MB/s vs hdfs %.1f MB/s per client", b.PerClientMBps, h.PerClientMBps)
	if b.PerClientMBps <= h.PerClientMBps {
		t.Fatalf("paper claim violated: BSFS writes (%.1f) not faster than HDFS (%.1f)", b.PerClientMBps, h.PerClientMBps)
	}
	// HDFS write-through pipelines are disk-bound (~60 MB/s modelled).
	if h.PerClientMBps > 70 {
		t.Fatalf("HDFS write throughput %.1f exceeds disk-bound expectation", h.PerClientMBps)
	}
}

func TestE1ReadDistinctShapes(t *testing.T) {
	b, err := RunReadDistinct(microOpts("bsfs", 20))
	if err != nil {
		t.Fatal(err)
	}
	h, err := RunReadDistinct(microOpts("hdfs", 20))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("E1 reads: bsfs %.1f MB/s vs hdfs %.1f MB/s per client", b.PerClientMBps, h.PerClientMBps)
	if b.PerClientMBps <= h.PerClientMBps {
		t.Fatalf("paper claim violated: BSFS reads (%.1f) not faster than HDFS (%.1f)", b.PerClientMBps, h.PerClientMBps)
	}
}

func TestE2ReadSharedShapes(t *testing.T) {
	b, err := RunReadShared(microOpts("bsfs", 16))
	if err != nil {
		t.Fatal(err)
	}
	h, err := RunReadShared(microOpts("hdfs", 16))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("E2 shared reads: bsfs %.1f MB/s vs hdfs %.1f MB/s per client", b.PerClientMBps, h.PerClientMBps)
	if b.PerClientMBps <= h.PerClientMBps {
		t.Fatalf("paper claim violated: BSFS shared reads (%.1f) not faster than HDFS (%.1f)", b.PerClientMBps, h.PerClientMBps)
	}
}

func TestBSFSSustainsUnderConcurrency(t *testing.T) {
	// The paper's headline: BSFS throughput holds as clients scale.
	lo, err := RunWriteDistinct(microOpts("bsfs", 4))
	if err != nil {
		t.Fatal(err)
	}
	hi, err := RunWriteDistinct(microOpts("bsfs", 40))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("bsfs writes: 4 clients %.1f MB/s, 40 clients %.1f MB/s", lo.PerClientMBps, hi.PerClientMBps)
	if hi.PerClientMBps < lo.PerClientMBps*0.5 {
		t.Fatalf("BSFS did not sustain throughput: %.1f -> %.1f MB/s", lo.PerClientMBps, hi.PerClientMBps)
	}
}

func TestX1AppendSharedWorksOnlyOnBSFS(t *testing.T) {
	p, err := RunAppendShared(microOpts("bsfs", 10))
	if err != nil {
		t.Fatal(err)
	}
	if p.PerClientMBps <= 0 {
		t.Fatal("no append throughput measured")
	}
	if _, err := RunAppendShared(microOpts("hdfs", 10)); err == nil {
		t.Fatal("HDFS accepted concurrent appends; it must not (§II.C)")
	}
}

// TestX1AssertsRefusalSentinel: the registered X1 run passes, and its
// HDFS check accepts the typed fsapi.ErrNotSupported under any message
// while rejecting nil and a look-alike message without the sentinel.
func TestX1AssertsRefusalSentinel(t *testing.T) {
	e, _ := FindExperiment("x1")
	res, err := e.Run(SweepOpts{Clients: []int{2}, BytesPerClient: 4 * MB, Spec: ClusterSpec{Nodes: 12}, MemCapacity: 16 * MB})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 1 {
		t.Fatalf("x1 points = %+v", res.Points)
	}
	if err := hdfsRefused(fmt.Errorf("%w: reworded", fsapi.ErrNotSupported)); err != nil {
		t.Fatalf("wrapped sentinel rejected: %v", err)
	}
	for _, bad := range []error{nil, errors.New(fsapi.ErrNotSupported.Error() + ": hdfs append")} {
		if hdfsRefused(bad) == nil {
			t.Fatalf("hdfsRefused(%v) accepted an error without the sentinel", bad)
		}
	}
}

func TestE4RandomTextWriter(t *testing.T) {
	opts := AppOpts{Maps: 20, BytesPerMap: 128 * MB, Spec: ClusterSpec{Nodes: 60, MetaNodes: 8}}
	opts.Storage = StorageOpts{Kind: "bsfs"}
	b, err := RunRandomTextWriter(opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Storage = StorageOpts{Kind: "hdfs"}
	h, err := RunRandomTextWriter(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("E4 RTW completion: bsfs %s vs hdfs %s", b.Completion, h.Completion)
	if b.Completion >= h.Completion {
		t.Fatalf("paper claim violated: RTW on BSFS (%s) not faster than HDFS (%s)", b.Completion, h.Completion)
	}
	if b.Counters.OutputBytes != 20*128*MB {
		t.Fatalf("RTW output = %d bytes", b.Counters.OutputBytes)
	}
}

func TestE5DistributedGrep(t *testing.T) {
	opts := AppOpts{Maps: 20, BytesPerMap: 128 * MB, Spec: ClusterSpec{Nodes: 60, MetaNodes: 8}}
	opts.Storage = StorageOpts{Kind: "bsfs", MemCapacity: 48 * MB}
	b, err := RunDistributedGrep(opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Storage = StorageOpts{Kind: "hdfs", MemCapacity: 48 * MB}
	h, err := RunDistributedGrep(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("E5 grep completion: bsfs %s vs hdfs %s (hdfs locality %d/%d/%d)",
		b.Completion, h.Completion, h.Counters.DataLocal, h.Counters.RackLocal, h.Counters.Remote)
	if b.Completion >= h.Completion {
		t.Fatalf("paper claim violated: grep on BSFS (%s) not faster than HDFS (%s)", b.Completion, h.Completion)
	}
}

func TestX4SnapshotWorkflow(t *testing.T) {
	opts := AppOpts{Maps: 8, BytesPerMap: 64 * MB, Spec: ClusterSpec{Nodes: 40, MetaNodes: 6}}
	opts.Storage = StorageOpts{Kind: "bsfs"}
	results, err := RunSnapshotWorkflow(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("%d results, want 2", len(results))
	}
	// The snapshot-1 job reads half the data of the snapshot-2 job.
	var in1, in2 int64
	for _, r := range results {
		if r.Experiment == "X4-snapshot-grep-1" {
			in1 = r.Counters.InputBytes
		} else {
			in2 = r.Counters.InputBytes
		}
	}
	if in1 <= 0 || in2 != 2*in1 {
		t.Fatalf("snapshot isolation broken: inputs %d vs %d (want 1:2)", in1, in2)
	}
}

// TestX4ConcurrentWriterLands: the writer racing the two snapshot
// jobs really appends — the dataset ends larger than snapshot 2 by
// exactly the written bytes.
func TestX4ConcurrentWriterLands(t *testing.T) {
	opts := AppOpts{Maps: 4, BytesPerMap: 16 * MB, Spec: ClusterSpec{Nodes: 20, MetaNodes: 4}, Storage: StorageOpts{Kind: "bsfs"}}
	_, err := onMapReduce(opts, func(tb *Testbed, mr *mapreduce.Cluster) (struct{}, error) {
		jobs, err := snapshotWorkflow(tb, mr, opts)
		if err != nil {
			return struct{}{}, err
		}
		fi, err := tb.NewFS(0).Stat(x4Path)
		if err != nil {
			return struct{}{}, err
		}
		snap2 := jobs[1].Counters.InputBytes
		if want := snap2 + opts.BytesPerMap*int64(opts.Maps)/4; fi.Size != want {
			t.Errorf("final size %d, snapshot 2 %d: want %d", fi.Size, snap2, want)
		}
		return struct{}{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestX3FaultChurn(t *testing.T) {
	res, err := RunFaultChurn(FaultOpts{
		Clients:        12,
		BytesPerClient: 64 * MB,
		KillProviders:  2,
		Spec:           ClusterSpec{Nodes: 60, MetaNodes: 8},
		Storage:        StorageOpts{MemCapacity: 48 * MB, Replication: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("X3: healthy %.1f MB/s, degraded %.1f MB/s, repaired %d pages (%d replicas) in %s",
		res.Healthy.PerClientMBps, res.Degraded.PerClientMBps,
		res.Repair.PagesDegraded, res.Repair.ReplicasAdded, res.RepairDuration)
	// RunFaultChurn itself verifies correctness (no short reads, full
	// replication after repair); here we assert the scenario's shape.
	if res.Healthy.PerClientMBps <= 0 || res.Degraded.PerClientMBps <= 0 {
		t.Fatal("no throughput measured")
	}
	if res.Repair.PagesDegraded == 0 || res.Repair.ReplicasAdded < res.Repair.PagesDegraded {
		t.Fatalf("killing 2 of 59 providers must degrade pages and repair must re-copy them: %+v", res.Repair)
	}
	if res.RepairDuration <= 0 {
		t.Fatal("repair consumed no virtual time")
	}
}

func TestX6MembershipChurn(t *testing.T) {
	res, err := RunChurn(ChurnOpts{
		Writers:    3,
		Providers:  8,
		Cycles:     3,
		BlockBytes: 2 * MB,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("X6: %d appends (%d retried), epoch %d, sweeps %+v, rebalanced in %s",
		res.Appends, res.Retries, res.Epoch, res.Sweeps, res.RebalanceDuration)
	// RunChurn itself asserts the hard properties (no append or read ever
	// loses all replicas, convergence to the preferred owners); here we
	// check the scenario's shape.
	if res.Appends < res.Cycles {
		t.Fatalf("writers published only %d blocks across %d churn cycles", res.Appends, res.Cycles)
	}
	// Each cycle is a death (epoch+1 via health), a removal and a join;
	// the epoch must have moved at least that much.
	if res.Epoch < uint64(3*res.Cycles) {
		t.Fatalf("epoch %d after %d churn cycles, want >= %d", res.Epoch, res.Cycles, 3*res.Cycles)
	}
	if res.Sweeps.ReplicasAdded == 0 {
		t.Fatalf("churn repaired no replicas: %+v", res.Sweeps)
	}
	if res.Sweeps.PagesMigrated == 0 {
		t.Fatalf("joins migrated no pages onto the new owners: %+v", res.Sweeps)
	}
}

func TestA1PlacementAblation(t *testing.T) {
	// Grafting HDFS's local-first placement onto BlobSeer concentrates
	// each file on its writer's node; concurrent readers then hammer
	// single sources. Striping must read faster — evidence for the
	// paper's claim that the win comes from load-balanced placement.
	striped, err := RunReadDistinct(microOpts("bsfs", 20))
	if err != nil {
		t.Fatal(err)
	}
	o := microOpts("bsfs", 20)
	o.Storage.LocalFirstPlacement = true
	local, err := RunReadDistinct(o)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("A1 reads: striped %.1f MB/s vs local-first %.1f MB/s", striped.PerClientMBps, local.PerClientMBps)
	if local.PerClientMBps >= striped.PerClientMBps {
		t.Fatalf("local-first placement (%.1f) should not beat striping (%.1f) for concurrent reads", local.PerClientMBps, striped.PerClientMBps)
	}
}

func TestX2PublishThroughputScalesWithWriters(t *testing.T) {
	// X2's acceptance bar: aggregate publish throughput (versions/s)
	// must grow — not stay flat — from 1 to 16 writers sharing one
	// blob, because group commit and the batched ticket/publish RPCs
	// keep the version manager off the critical path.
	run := func(n int) PublishResult {
		t.Helper()
		res, err := RunPublishShared(PublishOpts{
			Clients:         n,
			BlocksPerClient: 32,
			Spec:            ClusterSpec{Nodes: 34},
		})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		return res
	}
	one, sixteen := run(1), run(16)
	t.Logf("X2: 1 writer %.1f versions/s, 16 writers %.1f versions/s",
		one.VersionsPerSec, sixteen.VersionsPerSec)
	// "Not flat" with margin: 16 writers must publish at well over
	// double the single-writer rate (the probe shows ~15x).
	if sixteen.VersionsPerSec < 2*one.VersionsPerSec {
		t.Fatalf("publish throughput flat: 1 writer %.1f vs 16 writers %.1f versions/s",
			one.VersionsPerSec, sixteen.VersionsPerSec)
	}
}

func TestX5ShardedPublishScales(t *testing.T) {
	// X5's acceptance bar: with the version-manager tier the modeled
	// bottleneck (per-RPC service occupancy), aggregate multi-blob
	// publish throughput at 4 shards must be strictly greater than at
	// 1 shard — the tentpole claim that partitioning version
	// management scales publication past one node.
	run := func(shards int) PublishResult {
		t.Helper()
		res, err := RunShardPublish(ShardOpts{
			Writers:         24,
			BlocksPerWriter: 16,
			Shards:          shards,
			Spec:            ClusterSpec{Nodes: 50, MetaNodes: 8},
		})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		return res
	}
	one, four := run(1), run(4)
	t.Logf("X5: 1 shard %.1f versions/s, 4 shards %.1f versions/s (%.2fx)",
		one.VersionsPerSec, four.VersionsPerSec, four.VersionsPerSec/one.VersionsPerSec)
	if four.VersionsPerSec <= one.VersionsPerSec {
		t.Fatalf("sharding did not scale publish throughput: 1 shard %.1f vs 4 shards %.1f versions/s",
			one.VersionsPerSec, four.VersionsPerSec)
	}
	if one.Versions != four.Versions {
		t.Fatalf("version counts diverged across shard widths: %d vs %d", one.Versions, four.Versions)
	}
}

func TestA7ShardedNotSlowerThanSingle(t *testing.T) {
	// A7's acceptance bar: the sharded tier is at least as fast as the
	// centralized baseline at every tested writer count.
	// RunShardAblation itself errors on a violation; the explicit
	// comparison here keeps the numbers in the test log.
	for _, writers := range []int{4, 16, 32} {
		sharded, single, err := RunShardAblation(ShardOpts{
			Writers:         writers,
			BlocksPerWriter: 16,
			Spec:            ClusterSpec{Nodes: 50, MetaNodes: 8},
		})
		if err != nil {
			t.Fatalf("writers=%d: %v", writers, err)
		}
		t.Logf("A7 writers=%d: sharded %.1f versions/s vs single %.1f versions/s",
			writers, sharded.VersionsPerSec, single.VersionsPerSec)
	}
}

func TestA6GroupCommitNotSlowerThanSerial(t *testing.T) {
	// A6's acceptance bar: batched (group-commit) publication is at
	// least as fast as the retired serial-publish baseline at every
	// tested writer count. The serial rates were recorded before that
	// path was removed (BENCH_ablations.json); the 1% margin absorbs
	// scheduling jitter.
	for _, n := range []int{1, 4, 16} {
		batched, err := RunPublishShared(PublishOpts{
			Clients:         n,
			BlocksPerClient: 32,
			Spec:            ClusterSpec{Nodes: 34},
		})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		serial := ablationBaseline(t, fmt.Sprintf("a6_serial_versions_per_s_n%d", n))
		t.Logf("A6 n=%d: group-commit %.1f versions/s vs recorded serial %.1f versions/s",
			n, batched.VersionsPerSec, serial)
		if batched.VersionsPerSec < serial*0.99 {
			t.Fatalf("n=%d: group commit slower than serial publish: %.1f vs %.1f versions/s",
				n, batched.VersionsPerSec, serial)
		}
	}
}

func TestA5ParallelDataPathNotSlower(t *testing.T) {
	// The A5 ablation's acceptance bar: the parallel/pipelined client
	// data path must be at least as fast as the retired serial baseline
	// (makespans recorded in BENCH_ablations.json), for both reads and
	// writes.
	for _, dir := range []struct {
		name string
		run  microRunner
	}{
		{"write", RunWriteDistinct},
		{"read", RunReadDistinct},
	} {
		par, err := dir.run(microOpts("bsfs", 12))
		if err != nil {
			t.Fatal(err)
		}
		serial := ablationBaseline(t, "a5_serial_"+dir.name+"_makespan_s")
		t.Logf("A5 %s: parallel %.1f MB/s per client, makespan %s vs recorded serial %.4fs",
			dir.name, par.PerClientMBps, par.Duration, serial)
		// Allow a hair of tolerance: scheduling-order differences can
		// shuffle identical charges by rounding.
		if par.Duration.Seconds() > serial*1.01 {
			t.Fatalf("parallel %s path slower than serial: %s vs %.4fs", dir.name, par.Duration, serial)
		}
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

func TestX7TieredRecovery(t *testing.T) {
	res, err := RunTieredRecovery(TieredOpts{
		Clients:        2,
		BytesPerClient: 16 * MB,
		Dir:            t.TempDir(),
		Storage:        StorageOpts{Replication: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.StoredPages == 0 || res.RecoveredPages != res.StoredPages {
		t.Fatalf("recovered %d of %d pages", res.RecoveredPages, res.StoredPages)
	}
	if res.LogBytes == 0 {
		t.Fatal("no log bytes on disk")
	}
	if res.Warm.AggregateMBps < res.Cold.AggregateMBps {
		t.Fatalf("warm %.1f MB/s < cold %.1f MB/s", res.Warm.AggregateMBps, res.Cold.AggregateMBps)
	}
	// Cold reads must actually touch disks: the restarted stores serve
	// nothing from RAM.
	if res.Cold.DiskBytes == 0 {
		t.Fatal("cold pass charged no disk reads")
	}
}

// smokeServeOpts is the reduced-scale X8 configuration: a small tenant
// population and a slow version manager, so 10x offered load is well
// past saturation inside a short virtual window.
func smokeServeOpts() ServeOpts {
	return ServeOpts{
		Tenants:       50,
		BaseRate:      200,
		Duration:      4 * time.Second,
		VMServiceTime: 500 * time.Microsecond,
		Nodes:         12,
	}
}

func TestX8GracefulDegradationUnderOverload(t *testing.T) {
	open, admitted, err := RunServeSweep(smokeServeOpts(), []float64{1, 10})
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range []float64{1, 10} {
		o, a := open[i], admitted[i]
		t.Logf("x8 %2.0fx open : offered %d completed %d goodput %.0f/s p99 %s inflight<=%d",
			m, o.Report.Offered, o.Report.Completed, o.GoodputPerSec, o.Report.P99, o.Report.MaxInflight)
		t.Logf("x8 %2.0fx admit: offered %d completed %d rejected %d goodput %.0f/s p99 %s inflight<=%d",
			m, a.Report.Offered, a.Report.Completed, a.Report.Rejected, a.GoodputPerSec, a.Report.P99, a.Report.MaxInflight)
	}
	// The sweep itself asserts goodput and the admitted tail; the
	// smoke adds the queue-growth claim: at 10x the open run's
	// in-flight high-water mark must dwarf the admitted run's.
	o10, a10 := open[1], admitted[1]
	if a10.Report.Rejected == 0 {
		t.Fatal("admission at 10x rejected nothing")
	}
	if o10.Report.MaxInflight < 2*a10.Report.MaxInflight {
		t.Fatalf("open-loop backlog %d not meaningfully above admitted %d",
			o10.Report.MaxInflight, a10.Report.MaxInflight)
	}
}
