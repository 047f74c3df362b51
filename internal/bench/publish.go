// publish.go runs the version-manager scaling scenario (X2): N
// concurrent writers append fixed-size blocks to ONE shared file
// through the BSFS writer pipeline, and the measured quantity is
// publish throughput — published versions per second of virtual time.
// Every block is one version, so the workload is metadata-bound by
// design: it exposes whether the per-version round trips to the
// version manager (ticket + publish) scale with writer count or
// flatten into a serial bottleneck.
package bench

import (
	"fmt"
	"time"
)

// PublishOpts parameterizes the shared-blob publish scenario.
type PublishOpts struct {
	Clients int
	// BlocksPerClient is the number of versions each writer publishes
	// (default 64). The workload is sized in versions, not bytes:
	// publish throughput is the metric.
	BlocksPerClient int
	// BlockSize is the BSFS block (and thus per-version payload) size
	// (default 1 MB — small enough that version-manager round trips
	// are a visible share of each commit).
	BlockSize int64
	Storage   StorageOpts
	Spec      ClusterSpec
}

// writerPipelineDepth is the X2/X5 writers' pipeline depth and
// therefore the publish batch size ceiling.
const writerPipelineDepth = 8

func (o *PublishOpts) fillDefaults() {
	if o.Clients <= 0 {
		o.Clients = 1
	}
	if o.BlocksPerClient <= 0 {
		o.BlocksPerClient = 64
	}
	if o.BlockSize <= 0 {
		o.BlockSize = 1 * MB
	}
	o.Storage.Kind = "bsfs" // the scenario exercises BlobSeer's version manager
	o.Storage.BlockSize = o.BlockSize
	o.Storage.MaxInFlightBlocks = writerPipelineDepth
}

// PublishResult is the outcome of one shared-blob publish run.
type PublishResult struct {
	// Point carries the usual per-writer data throughput summary.
	Point Point
	// Versions is the number of versions published (writers x blocks).
	Versions int
	// VersionsPerSec is the aggregate publish throughput over the
	// measured makespan.
	VersionsPerSec float64
}

// RunPublishShared is experiment X2: N writers concurrently append
// BlocksPerClient blocks each to one shared file; every block is one
// published version. The run fails if any version is lost or
// duplicated — the count of published snapshots must equal the number
// of committed blocks exactly.
func RunPublishShared(opts PublishOpts) (PublishResult, error) {
	opts.fillDefaults()
	tb, err := NewTestbed(opts.Spec, opts.Storage)
	if err != nil {
		return PublishResult{}, err
	}
	clients := tb.clientNodes(opts.Clients)
	perClient := int64(opts.BlocksPerClient) * opts.BlockSize
	durations := make([]time.Duration, opts.Clients)
	var makespan time.Duration
	var versions int
	var runErr firstError
	err = tb.Run(func() {
		fs := tb.NewFS(0)
		w, err := fs.Create("/x2/shared")
		if err != nil {
			runErr.set(err)
			return
		}
		if err := w.Close(); err != nil {
			runErr.set(err)
			return
		}
		start := tb.Env.Now()
		wg := tb.Env.NewWaitGroup()
		for i, c := range clients {
			wg.Go(func() {
				t0 := tb.Env.Now()
				cfs := tb.NewFS(c)
				aw, err := cfs.Append("/x2/shared")
				if err != nil {
					runErr.set(err)
					return
				}
				for b := 0; b < opts.BlocksPerClient; b++ {
					if _, err := aw.WriteSynthetic(opts.BlockSize); err != nil {
						runErr.set(err)
					}
				}
				if err := aw.Close(); err != nil {
					runErr.set(err)
				}
				durations[i] = tb.Env.Now() - t0
			})
		}
		wg.Wait()
		makespan = tb.Env.Now() - start
		if runErr.get() != nil {
			return
		}
		vs, err := tb.bsfsSvc.NewFS(0).Versions("/x2/shared")
		if err != nil {
			runErr.set(err)
			return
		}
		versions = len(vs)
		if want := opts.Clients * opts.BlocksPerClient; versions != want {
			runErr.set(fmt.Errorf("bench: x2 published %d versions, want %d", versions, want))
		}
	})
	if err == nil {
		err = runErr.get()
	}
	res := PublishResult{
		Point:    summarize("X2-publish-shared", tb.Kind, perClient, durations, makespan),
		Versions: versions,
	}
	if makespan > 0 {
		res.VersionsPerSec = float64(versions) / makespan.Seconds()
	}
	return res, err
}
