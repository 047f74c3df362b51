// shard.go runs the version-manager sharding scenario (X5) and its
// ablation (A7): N concurrent writers append fixed-size blocks to N
// DIFFERENT files — one blob each, spread round-robin over the
// version-manager shards — and the measured quantity is aggregate
// publish throughput (published versions per second of virtual time).
//
// The workload is the cross-blob complement of X2: where X2 stresses
// one blob's total order, X5 stresses the manager tier itself. Every
// run models the manager's per-RPC processing occupancy
// (Options.VMServiceTime), so a single centralized shard saturates:
// every ticket and publish call of every writer queues on one
// processor. Sharding the tier divides that queue by the shard count,
// and aggregate throughput scales accordingly — the beyond-the-paper
// claim this experiment demonstrates. A7 runs the same workload with
// the tier collapsed to one shard and asserts the sharded tier is at
// least as fast.
package bench

import (
	"fmt"
	"time"
)

// ShardOpts parameterizes the multi-blob publish scaling scenario.
type ShardOpts struct {
	// Writers is the number of concurrent writers, each appending to
	// its own file/blob (default 32).
	Writers int
	// BlocksPerWriter is the number of versions each writer publishes
	// (default 16).
	BlocksPerWriter int
	// BlockSize is the BSFS block (and per-version payload) size
	// (default 256 KB — one page per version, so the workload stays
	// metadata-bound and the version-manager tier is the bottleneck).
	BlockSize int64
	// Shards is the version-manager shard count (default 1).
	Shards  int
	Storage StorageOpts
	Spec    ClusterSpec
}

// shardServiceTime is the modeled per-RPC processing occupancy of each
// version-manager shard. It applies identically at every shard count;
// only the queue it forms is divided by sharding.
const shardServiceTime = 400 * time.Microsecond

func (o *ShardOpts) fillDefaults() {
	if o.Writers <= 0 {
		o.Writers = 32
	}
	if o.BlocksPerWriter <= 0 {
		o.BlocksPerWriter = 16
	}
	if o.BlockSize <= 0 {
		o.BlockSize = 256 * KB
	}
	if o.Shards < 1 {
		o.Shards = 1
	}
	o.Storage.Kind = "bsfs"
	o.Storage.BlockSize = o.BlockSize
	o.Storage.MaxInFlightBlocks = writerPipelineDepth
	o.Storage.VMShards = o.Shards
	o.Storage.VMServiceTime = shardServiceTime
}

// RunShardPublish is experiment X5: Writers concurrent writers append
// BlocksPerWriter blocks each to their own file; every block is one
// published version and the blobs behind the files spread over the
// version-manager shards. The run fails if any file ends with the
// wrong version count — sharding must never lose or duplicate a
// snapshot.
func RunShardPublish(opts ShardOpts) (PublishResult, error) {
	opts.fillDefaults()
	tb, err := NewTestbed(opts.Spec, opts.Storage)
	if err != nil {
		return PublishResult{}, err
	}
	clients := tb.clientNodes(opts.Writers)
	perClient := int64(opts.BlocksPerWriter) * opts.BlockSize
	durations := make([]time.Duration, opts.Writers)
	var makespan time.Duration
	var versions int
	var runErr firstError
	path := func(i int) string { return fmt.Sprintf("/x5/f%04d", i) }
	err = tb.Run(func() {
		// Setup phase (unmeasured): create every file so the measured
		// window holds only the append/publish traffic.
		fs := tb.NewFS(0)
		for i := 0; i < opts.Writers; i++ {
			w, err := fs.Create(path(i))
			if err != nil {
				runErr.set(err)
				return
			}
			if err := w.Close(); err != nil {
				runErr.set(err)
				return
			}
		}
		start := tb.Env.Now()
		wg := tb.Env.NewWaitGroup()
		for i, c := range clients {
			wg.Go(func() {
				t0 := tb.Env.Now()
				cfs := tb.NewFS(c)
				aw, err := cfs.Append(path(i))
				if err != nil {
					runErr.set(err)
					return
				}
				for b := 0; b < opts.BlocksPerWriter; b++ {
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
		for i := 0; i < opts.Writers; i++ {
			vs, err := tb.bsfsSvc.NewFS(0).Versions(path(i))
			if err != nil {
				runErr.set(err)
				return
			}
			versions += len(vs)
			if len(vs) != opts.BlocksPerWriter {
				runErr.set(fmt.Errorf("bench: x5 file %d published %d versions, want %d", i, len(vs), opts.BlocksPerWriter))
				return
			}
		}
	})
	if err == nil {
		err = runErr.get()
	}
	res := PublishResult{
		Point:    summarize(fmt.Sprintf("X5-shards-%d", opts.Shards), tb.Kind, perClient, durations, makespan),
		Versions: versions,
	}
	if makespan > 0 {
		res.VersionsPerSec = float64(versions) / makespan.Seconds()
	}
	return res, err
}

// RunShardAblation is ablation A7: the same multi-blob workload with
// the version-manager tier sharded and collapsed to one shard. It
// errors if the sharded tier publishes slower than the centralized
// baseline — the sim-level assertion that partitioning never loses.
func RunShardAblation(opts ShardOpts) (sharded, single PublishResult, err error) {
	sh := opts
	if sh.Shards < 2 {
		sh.Shards = 4
	}
	sharded, err = RunShardPublish(sh)
	if err != nil {
		return sharded, single, err
	}
	base := opts
	base.Shards = 1
	single, err = RunShardPublish(base)
	if err != nil {
		return sharded, single, err
	}
	// Allow sub-percent scheduling jitter; anything beyond means the
	// sharded tier genuinely regressed.
	if sharded.VersionsPerSec < single.VersionsPerSec*0.99 {
		err = fmt.Errorf("bench: a7 sharded tier slower than single shard: %.1f vs %.1f versions/s",
			sharded.VersionsPerSec, single.VersionsPerSec)
	}
	return sharded, single, err
}
