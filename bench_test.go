// bench_test.go runs every registered experiment of the paper's
// evaluation (§IV) and this repository's extensions and ablations —
// the bench.Experiments registry behind cmd/bsfs-bench: E1-E5, X1-X8,
// A1-A4 and A7 — as one Go benchmark with a sub-benchmark per
// experiment id:
//
//	go test -run '^$' -bench 'Experiments/e1$'
//
// Each iteration builds fresh simulated clusters, runs the experiment
// in virtual time, and reports every sweep point (per-client and
// aggregate MB/s, makespan), MapReduce job (completion seconds) and
// named metric of the last result as custom benchmark units. The sweep
// is one client count at a reduced default scale so `go test -bench=.`
// finishes quickly; set -paperscale to run the full 270-node / 1 GB
// per client setup the paper used (cmd/bsfs-bench defaults to it).
package main

import (
	"flag"
	"fmt"
	"testing"

	"repro/internal/bench"
)

var paperScale = flag.Bool("paperscale", false, "run benchmarks at the paper's full 270-node scale")

// scale returns the benchmark sweep: one client count, bytes/client,
// cluster spec and storage-node cache.
func scale() bench.SweepOpts {
	if *paperScale {
		return bench.SweepOpts{Clients: []int{100}, BytesPerClient: 1 * bench.GB, Spec: bench.ClusterSpec{Nodes: 270}, MemCapacity: 512 * bench.MB}
	}
	return bench.SweepOpts{Clients: []int{25}, BytesPerClient: 128 * bench.MB, Spec: bench.ClusterSpec{Nodes: 60, MetaNodes: 8}, MemCapacity: 48 * bench.MB}
}

func BenchmarkExperiments(b *testing.B) {
	for _, e := range bench.Experiments {
		b.Run(e.ID, func(b *testing.B) {
			var res bench.ExperimentResult
			for i := 0; i < b.N; i++ {
				r, err := e.Run(scale())
				if err != nil {
					b.Fatal(err)
				}
				res = r
			}
			report(b, res)
		})
	}
}

// report publishes every point, job and metric of a result as
// benchmark units, each prefixed with the row it belongs to.
func report(b *testing.B, res bench.ExperimentResult) {
	for _, p := range res.Points {
		row := fmt.Sprintf("%s/%s/n%d", p.Experiment, p.Kind, p.Clients)
		b.ReportMetric(p.PerClientMBps, row+":MB/s/client")
		b.ReportMetric(p.AggregateMBps, row+":MB/s-total")
		b.ReportMetric(p.Duration.Seconds(), row+":cluster-s")
	}
	for _, j := range res.Jobs {
		b.ReportMetric(j.Completion.Seconds(), fmt.Sprintf("%s/%s/m%d:job-s", j.Experiment, j.Kind, j.Maps))
	}
	for _, m := range res.Metrics {
		b.ReportMetric(m.Value, m.Name+":"+m.Unit)
	}
}
