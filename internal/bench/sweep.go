// sweep.go defines the named experiments (E1..E5, X1..X8, A1..A4, A7)
// as parameter sweeps over both storage systems — the figures and
// tables of the paper's evaluation, regenerated, plus the extension
// and ablation studies this repository adds. Each returns one
// ExperimentResult; report.go renders it.
package bench

import (
	"errors"
	"fmt"

	"repro/internal/fsapi"
)

// SweepOpts parameterizes a full experiment sweep.
type SweepOpts struct {
	// Clients lists the sweep points (default the paper's range
	// 1..250).
	Clients []int
	// BytesPerClient defaults to the paper's 1 GB.
	BytesPerClient int64
	// Spec defaults to the paper's 270 nodes.
	Spec ClusterSpec
	// MemCapacity scales storage-node caches (default 512 MB).
	MemCapacity int64
	// Replication is the data replica count for both systems
	// (default 1; 3 reproduces HDFS's default pipeline).
	Replication int
}

func (o *SweepOpts) fillDefaults() {
	if len(o.Clients) == 0 {
		o.Clients = []int{1, 20, 50, 100, 150, 200, 250}
	}
	if o.BytesPerClient <= 0 {
		o.BytesPerClient = 1 * GB
	}
}

// microRunner is one of the E1/E2/E3/X1 run functions.
type microRunner func(MicroOpts) (Point, error)

// runSweep executes a microbenchmark over both storage kinds at every
// client count.
func runSweep(run microRunner, opts SweepOpts, kinds []string, mutate func(*MicroOpts)) ([]Point, error) {
	opts.fillDefaults()
	var out []Point
	for _, kind := range kinds {
		for _, n := range opts.Clients {
			mo := MicroOpts{
				Clients:        n,
				BytesPerClient: opts.BytesPerClient,
				Spec:           opts.Spec,
				Storage: StorageOpts{
					Kind:        kind,
					MemCapacity: opts.MemCapacity,
					Replication: opts.Replication,
				},
			}
			if mutate != nil {
				mutate(&mo)
			}
			p, err := run(mo)
			if err != nil {
				return out, fmt.Errorf("bench: %s kind=%s n=%d: %w", p.Experiment, kind, n, err)
			}
			out = append(out, p)
		}
	}
	return out, nil
}

// sweep is the Run of a plain microbenchmark sweep over kinds.
func sweep(run microRunner, kinds ...string) func(SweepOpts) (ExperimentResult, error) {
	return func(opts SweepOpts) (ExperimentResult, error) {
		pts, err := runSweep(run, opts, kinds, nil)
		return ExperimentResult{Points: pts}, err
	}
}

// ablation is the Run of a two-arm ablation on one storage kind: the
// baseline sweep (base may be nil), then the same sweep with arm
// applied on top, its points renamed to name.
func ablation(run microRunner, kind string, base func(*MicroOpts), name string, arm func(*MicroOpts)) func(SweepOpts) (ExperimentResult, error) {
	return func(opts SweepOpts) (ExperimentResult, error) {
		pts, err := runSweep(run, opts, []string{kind}, base)
		if err != nil {
			return ExperimentResult{Points: pts}, err
		}
		alt, err := runSweep(run, opts, []string{kind}, func(m *MicroOpts) {
			if base != nil {
				base(m)
			}
			arm(m)
		})
		for i := range alt {
			alt[i].Experiment = name
		}
		return ExperimentResult{Points: append(pts, alt...)}, err
	}
}

// appSweep is the Run of a MapReduce application benchmark: one job
// run per storage kind at every client count, which sets the job's map
// tasks; BytesPerClient sets the bytes per map.
func appSweep(run func(AppOpts) ([]AppResult, error), kinds ...string) func(SweepOpts) (ExperimentResult, error) {
	return func(opts SweepOpts) (ExperimentResult, error) {
		opts.fillDefaults()
		var res ExperimentResult
		for _, kind := range kinds {
			for _, n := range opts.Clients {
				jobs, err := run(AppOpts{
					Maps:        n,
					BytesPerMap: opts.BytesPerClient,
					Spec:        opts.Spec,
					Storage:     StorageOpts{Kind: kind, MemCapacity: opts.MemCapacity, Replication: opts.Replication},
				})
				if err != nil {
					return res, fmt.Errorf("bench: kind=%s maps=%d: %w", kind, n, err)
				}
				res.Jobs = append(res.Jobs, jobs...)
			}
		}
		return res, nil
	}
}

// oneJob adapts a single-job benchmark to appSweep.
func oneJob(run func(AppOpts) (AppResult, error)) func(AppOpts) ([]AppResult, error) {
	return func(opts AppOpts) ([]AppResult, error) {
		r, err := run(opts)
		return []AppResult{r}, err
	}
}

// hdfsRefused checks X1's HDFS leg: the append must fail with the
// typed fsapi.ErrNotSupported (§II.C), not merely fail.
func hdfsRefused(err error) error {
	if !errors.Is(err, fsapi.ErrNotSupported) {
		return fmt.Errorf("bench: x1 hdfs concurrent append: got %v, want %v", err, fsapi.ErrNotSupported)
	}
	return nil
}

// Experiment is one registry entry. Run returns whatever it measured
// even when it fails, so a failed assertion still renders its rows.
type Experiment struct {
	ID    string
	Title string
	Run   func(SweepOpts) (ExperimentResult, error)
}

// Experiments is the registry behind cmd/bsfs-bench: every figure and
// table of the paper plus the extension and ablation studies.
var Experiments = []Experiment{
	{
		ID:    "e1",
		Title: "E1 §IV.B: concurrent reads from different files (throughput vs clients)",
		Run:   sweep(RunReadDistinct, "bsfs", "hdfs"),
	},
	{
		ID:    "e2",
		Title: "E2 §IV.B: concurrent reads of disjoint parts of one huge file",
		Run:   sweep(RunReadShared, "bsfs", "hdfs"),
	},
	{
		ID:    "e3",
		Title: "E3 §IV.B: concurrent writes to different files",
		Run:   sweep(RunWriteDistinct, "bsfs", "hdfs"),
	},
	{
		ID:    "e4",
		Title: "E4 §IV.C: Random Text Writer (job completion time, maps = clients)",
		Run:   appSweep(oneJob(RunRandomTextWriter), "bsfs", "hdfs"),
	},
	{
		ID:    "e5",
		Title: "E5 §IV.C: Distributed Grep (job completion time, maps = clients)",
		Run:   appSweep(oneJob(RunDistributedGrep), "bsfs", "hdfs"),
	},
	{
		ID:    "x1",
		Title: "X1 §V: concurrent appends to one file (BSFS only; HDFS rejects)",
		Run: func(opts SweepOpts) (ExperimentResult, error) {
			pts, err := runSweep(RunAppendShared, opts, []string{"bsfs"}, nil)
			res := ExperimentResult{Points: pts}
			if err != nil {
				return res, err
			}
			opts.fillDefaults()
			_, herr := RunAppendShared(MicroOpts{
				Clients:        opts.Clients[0],
				BytesPerClient: opts.BytesPerClient,
				Spec:           opts.Spec,
				Storage:        StorageOpts{Kind: "hdfs", MemCapacity: opts.MemCapacity},
			})
			return res, hdfsRefused(herr)
		},
	},
	{
		ID:    "x2",
		Title: "X2: concurrent writers to one blob (publish throughput vs N writers, bsfs)",
		Run: func(opts SweepOpts) (ExperimentResult, error) {
			opts.fillDefaults()
			var res ExperimentResult
			for _, n := range opts.Clients {
				r, err := RunPublishShared(PublishOpts{
					Clients: n,
					Spec:    opts.Spec,
					Storage: StorageOpts{MemCapacity: opts.MemCapacity, Replication: opts.Replication},
				})
				if err != nil {
					return res, fmt.Errorf("bench: x2 n=%d: %w", n, err)
				}
				res.Points = append(res.Points, r.Point)
				res.metric(fmt.Sprintf("publish_rate_n%d", n), "versions/s", r.VersionsPerSec)
				res.metric(fmt.Sprintf("versions_n%d", n), "versions", float64(r.Versions))
			}
			return res, nil
		},
	},
	{
		ID:    "x3",
		Title: "X3: provider failure and churn (degraded reads + time-to-full-replication, bsfs)",
		Run: func(opts SweepOpts) (ExperimentResult, error) {
			opts.fillDefaults()
			var res ExperimentResult
			for _, n := range opts.Clients {
				// FaultOpts.fillDefaults forces bsfs and Replication >= 2.
				r, err := RunFaultChurn(FaultOpts{
					Clients:        n,
					BytesPerClient: opts.BytesPerClient,
					Spec:           opts.Spec,
					Storage:        StorageOpts{MemCapacity: opts.MemCapacity, Replication: opts.Replication},
				})
				if err != nil {
					return res, fmt.Errorf("bench: x3 n=%d: %w", n, err)
				}
				res.Points = append(res.Points, r.Healthy, r.Degraded)
				res.metric(fmt.Sprintf("pages_repaired_n%d", n), "pages", float64(r.Repair.PagesDegraded))
				res.metric(fmt.Sprintf("repair_duration_n%d", n), "s", r.RepairDuration.Seconds())
				res.metric(fmt.Sprintf("pages_scanned_n%d", n), "pages", float64(r.Repair.PagesScanned))
				res.metric(fmt.Sprintf("replicas_added_n%d", n), "pages", float64(r.Repair.ReplicasAdded))
				res.metric(fmt.Sprintf("bytes_copied_n%d", n), "B", float64(r.Repair.BytesCopied))
			}
			return res, nil
		},
	},
	{
		ID:    "x4",
		Title: "X4 §V: concurrent MapReduce jobs on different snapshots (bsfs)",
		Run:   appSweep(RunSnapshotWorkflow, "bsfs"),
	},
	{
		ID:    "x5",
		Title: "X5: sharded version manager (aggregate multi-blob publish throughput vs shard count)",
		Run: func(opts SweepOpts) (ExperimentResult, error) {
			opts.fillDefaults()
			// The sweep axis is the shard count, not the client count:
			// a fixed multi-blob writer fleet drives the tier at every
			// shard width. The run itself asserts the tentpole claim —
			// 4 shards must out-publish the centralized baseline.
			var res ExperimentResult
			var one, four float64
			for _, sh := range []int{1, 2, 4, 8} {
				r, err := RunShardPublish(ShardOpts{
					Shards:  sh,
					Spec:    opts.Spec,
					Storage: StorageOpts{MemCapacity: opts.MemCapacity, Replication: opts.Replication},
				})
				if err != nil {
					return res, fmt.Errorf("bench: x5 shards=%d: %w", sh, err)
				}
				res.Points = append(res.Points, r.Point)
				res.metric(fmt.Sprintf("publish_rate_shards%d", sh), "versions/s", r.VersionsPerSec)
				res.metric(fmt.Sprintf("versions_shards%d", sh), "versions", float64(r.Versions))
				switch sh {
				case 1:
					one = r.VersionsPerSec
				case 4:
					four = r.VersionsPerSec
				}
			}
			if four <= one {
				return res, fmt.Errorf("bench: x5 sharding did not scale: 4 shards %.1f <= 1 shard %.1f versions/s", four, one)
			}
			return res, nil
		},
	},
	{
		ID:    "x6",
		Title: "X6: membership churn (writers survive join/leave cycles, time-to-rebalance, bsfs)",
		Run: func(opts SweepOpts) (ExperimentResult, error) {
			opts.fillDefaults()
			var res ExperimentResult
			r, err := RunChurn(ChurnOpts{Replication: opts.Replication})
			if err != nil {
				return res, fmt.Errorf("bench: x6: %w", err)
			}
			res.metric("appends", "ops", float64(r.Appends))
			res.metric("append_retries", "ops", float64(r.Retries))
			res.metric("final_epoch", "epoch", float64(r.Epoch))
			res.metric("replicas_added", "pages", float64(r.Sweeps.ReplicasAdded))
			res.metric("pages_migrated", "pages", float64(r.Sweeps.PagesMigrated))
			res.metric("rebalance_duration", "s", r.RebalanceDuration.Seconds())
			res.metric("cycles", "cycles", float64(r.Cycles))
			res.metric("bytes_copied", "B", float64(r.Sweeps.BytesCopied))
			return res, nil
		},
	},
	{
		ID:    "x7",
		Title: "X7: tiered storage recovery (cold vs warm reads, restart recovery time vs store size)",
		Run: func(opts SweepOpts) (ExperimentResult, error) {
			// The sweep axis is the store size: the dataset the provider
			// fleet must recover after a restart.
			var res ExperimentResult
			for _, mb := range []int64{64, 256, 1024} {
				r, err := RunTieredRecovery(TieredOpts{
					BytesPerClient: mb * MB,
					Storage:        StorageOpts{MemCapacity: opts.MemCapacity, Replication: opts.Replication},
				})
				if err != nil {
					return res, fmt.Errorf("bench: x7 size=%dMB: %w", mb, err)
				}
				r.Cold.Experiment = fmt.Sprintf("X7-cold-%dMB", mb)
				r.Warm.Experiment = fmt.Sprintf("X7-warm-%dMB", mb)
				res.Points = append(res.Points, r.Cold, r.Warm)
				res.metric(fmt.Sprintf("recovered_pages_%dmb", mb), "pages", float64(r.RecoveredPages))
				res.metric(fmt.Sprintf("recovery_wall_%dmb", mb), "ms", float64(r.RecoveryWall.Milliseconds()))
				res.metric(fmt.Sprintf("recovery_sim_%dmb", mb), "s", r.RecoverySim.Seconds())
				res.metric(fmt.Sprintf("cold_read_%dmb", mb), "MB/s", r.Cold.AggregateMBps)
				res.metric(fmt.Sprintf("warm_read_%dmb", mb), "MB/s", r.Warm.AggregateMBps)
				res.metric(fmt.Sprintf("log_bytes_%dmb", mb), "B", float64(r.LogBytes))
				res.metric(fmt.Sprintf("warm_speedup_%dmb", mb), "x", r.Warm.AggregateMBps/r.Cold.AggregateMBps)
			}
			return res, nil
		},
	},
	{
		ID:    "x8",
		Title: "X8: heavy-traffic serving (open-loop multi-tenant load; admission on/off at 1x/5x/10x)",
		Run: func(opts SweepOpts) (ExperimentResult, error) {
			multiples := []float64{1, 5, 10}
			// The sweep itself asserts graceful degradation (admission
			// goodput >= open at 10x, admitted p99 within the SLO) and
			// returns every run that completed alongside the error.
			open, admitted, err := RunServeSweep(ServeOpts{}, multiples)
			var res ExperimentResult
			serve := func(r ServeResult, mode string, m float64) {
				name := func(metric string) string { return fmt.Sprintf("%s_%s_%gx", metric, mode, m) }
				res.Points = append(res.Points, r.Point)
				res.metric(name("goodput"), "ops/s", r.GoodputPerSec)
				res.metric(name("p99"), "ms", ms(r.Report.P99))
				res.metric(name("max_inflight"), "ops", float64(r.Report.MaxInflight))
				res.metric(name("p50"), "ms", ms(r.Report.P50))
				res.metric(name("offered"), "ops", float64(r.Report.Offered))
				res.metric(name("completed"), "ops", float64(r.Report.Completed))
			}
			for i, o := range open {
				serve(o, "open", multiples[i])
				if i < len(admitted) {
					serve(admitted[i], "admit", multiples[i])
					res.metric(fmt.Sprintf("rejected_admit_%gx", multiples[i]), "ops", float64(admitted[i].Report.Rejected))
				}
			}
			return res, err
		},
	},
	{
		ID:    "a1",
		Title: "A1 ablation: BlobSeer striping vs HDFS-style local-first placement (read side)",
		Run: ablation(RunReadDistinct, "bsfs", nil, "A1-local-first", func(m *MicroOpts) {
			m.Storage.LocalFirstPlacement = true
		}),
	},
	{
		ID:    "a2",
		Title: "A2 ablation: BSFS client block cache disabled",
		// MapReduce-style record reads (1 MB requests) are where the
		// §III.B client cache earns its keep.
		Run: ablation(RunReadDistinct, "bsfs", func(m *MicroOpts) { m.RecordSize = 1 * MB }, "A2-no-client-cache", func(m *MicroOpts) {
			m.Storage.DisableClientCache = true
		}),
	},
	{
		ID:    "a3",
		Title: "A3 ablation: BlobSeer page size sweep (shared-file reads)",
		Run: func(opts SweepOpts) (ExperimentResult, error) {
			var res ExperimentResult
			for _, ps := range []int64{64 * KB, 256 * KB, 1 * MB, 4 * MB} {
				pts, err := runSweep(RunReadShared, opts, []string{"bsfs"}, func(m *MicroOpts) {
					m.Storage.PageSize = ps
				})
				for i := range pts {
					pts[i].Experiment = fmt.Sprintf("A3-page-%s", size(ps))
				}
				res.Points = append(res.Points, pts...)
				if err != nil {
					return res, err
				}
			}
			return res, nil
		},
	},
	{
		ID:    "a4",
		Title: "A4 ablation: HDFS with RAM-buffered datanodes (write-through off)",
		Run: ablation(RunWriteDistinct, "hdfs", nil, "A4-ram-datanodes", func(m *MicroOpts) {
			m.Storage.RAMDatanodes = true
		}),
	},
	{
		ID:    "a7",
		Title: "A7 ablation: version-manager tier sharded vs centralized (multi-blob publish)",
		Run: func(opts SweepOpts) (ExperimentResult, error) {
			opts.fillDefaults()
			var res ExperimentResult
			for _, writers := range []int{8, 32, 64} {
				sharded, single, err := RunShardAblation(ShardOpts{
					Writers: writers,
					Spec:    opts.Spec,
					Storage: StorageOpts{MemCapacity: opts.MemCapacity, Replication: opts.Replication},
				})
				// Both arms measured: err, if any, is the sim assertion
				// that the sharded tier must not publish slower than the
				// single-shard baseline, so the pair still renders.
				if sharded.VersionsPerSec > 0 && single.VersionsPerSec > 0 {
					single.Point.Experiment = "A7-single-shard"
					res.Points = append(res.Points, sharded.Point, single.Point)
					res.metric(fmt.Sprintf("sharding_speedup_w%d", writers), "x", sharded.VersionsPerSec/single.VersionsPerSec)
					res.metric(fmt.Sprintf("sharded_rate_w%d", writers), "versions/s", sharded.VersionsPerSec)
					res.metric(fmt.Sprintf("single_rate_w%d", writers), "versions/s", single.VersionsPerSec)
				}
				if err != nil {
					return res, fmt.Errorf("bench: a7 writers=%d: %w", writers, err)
				}
			}
			return res, nil
		},
	},
}

// FindExperiment returns the registered experiment with the given id.
func FindExperiment(id string) (Experiment, bool) {
	for _, e := range Experiments {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}
