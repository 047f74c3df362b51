// appbench.go runs the paper's §IV.C application benchmarks: real
// MapReduce jobs through the framework, measuring job completion time
// with BSFS versus HDFS underneath — the paper's end-to-end claim.
package bench

import (
	"fmt"
	"time"

	"repro/internal/apps"
	"repro/internal/bsfs"
	"repro/internal/core"
	"repro/internal/fsapi"
	"repro/internal/mapreduce"
)

// AppOpts parameterizes an application benchmark.
type AppOpts struct {
	// Maps is the number of map tasks (the paper runs one writer per
	// node for Random Text Writer).
	Maps int
	// BytesPerMap is the volume each Random Text Writer map produces,
	// or the input volume behind each Distributed Grep map.
	BytesPerMap int64
	Storage     StorageOpts
	Spec        ClusterSpec
}

func (o *AppOpts) fillDefaults() {
	if o.Maps <= 0 {
		o.Maps = 50
	}
	if o.BytesPerMap <= 0 {
		o.BytesPerMap = 1 * GB
	}
}

// AppResult is one application benchmark measurement.
type AppResult struct {
	Experiment string
	Kind       string
	Maps       int
	Completion time.Duration
	Counters   mapreduce.Counters
}

// onMapReduce builds a fresh testbed and runs body as its root sim
// process with the MapReduce framework started over the storage.
func onMapReduce[T any](opts AppOpts, body func(tb *Testbed, mr *mapreduce.Cluster) (T, error)) (T, error) {
	var out T
	tb, err := NewTestbed(opts.Spec, opts.Storage)
	if err != nil {
		return out, err
	}
	var runErr error
	err = tb.Run(func() {
		mr, err := mapreduce.NewCluster(tb.Env, mapreduce.Config{
			JobTrackerNode: 0,
			WorkerNodes:    storageNodes(tb.Spec.Nodes),
			MapSlots:       2,
			ReduceSlots:    1,
			NewFS:          tb.NewFS,
		})
		if err != nil {
			runErr = err
			return
		}
		out, runErr = body(tb, mr)
	})
	if err == nil {
		err = runErr
	}
	return out, err
}

// submit runs one job and reports it as the experiment's result.
func submit(tb *Testbed, mr *mapreduce.Cluster, experiment string, job mapreduce.JobConfig) (AppResult, error) {
	r, err := mr.Submit(job)
	if err != nil {
		return AppResult{}, err
	}
	return AppResult{Experiment: experiment, Kind: tb.Kind, Maps: r.Counters.MapTasks, Completion: r.Duration, Counters: r.Counters}, nil
}

// RunRandomTextWriter is experiment E4: the map-only generator job
// whose access pattern is massively parallel writes to different files.
func RunRandomTextWriter(opts AppOpts) (AppResult, error) {
	opts.fillDefaults()
	return onMapReduce(opts, func(tb *Testbed, mr *mapreduce.Cluster) (AppResult, error) {
		return submit(tb, mr, "E4-random-text-writer", apps.RandomTextWriter("/rtw-out", opts.Maps, opts.BytesPerMap, true))
	})
}

// RunDistributedGrep is experiment E5: generate the input with Random
// Text Writer on the same storage (as the paper's evaluation does),
// then scan it; its access pattern is highly concurrent reads.
func RunDistributedGrep(opts AppOpts) (AppResult, error) {
	opts.fillDefaults()
	return onMapReduce(opts, func(tb *Testbed, mr *mapreduce.Cluster) (AppResult, error) {
		// Input generation (not measured).
		gen := apps.RandomTextWriter("/grep-in", opts.Maps, opts.BytesPerMap, true)
		if _, err := mr.Submit(gen); err != nil {
			return AppResult{}, fmt.Errorf("bench: grep input generation: %w", err)
		}
		return submit(tb, mr, "E5-distributed-grep", apps.SyntheticGrep([]string{"/grep-in"}, "/grep-out"))
	})
}

// RunSnapshotWorkflow is extension X4 (§V): two grep jobs run
// concurrently over two different snapshots of one dataset while a
// writer keeps appending to it — only expressible on a versioning
// storage layer. Returns the two jobs' results, snapshot 1's first;
// each job's input bytes are its snapshot's size.
func RunSnapshotWorkflow(opts AppOpts) ([]AppResult, error) {
	opts.fillDefaults()
	if opts.Storage.Kind != "bsfs" {
		return nil, fmt.Errorf("bench: X4 requires versioning storage (bsfs), got %q", opts.Storage.Kind)
	}
	return onMapReduce(opts, func(tb *Testbed, mr *mapreduce.Cluster) ([]AppResult, error) {
		return snapshotWorkflow(tb, mr, opts)
	})
}

// x4Path is the dataset the X4 jobs and writer share.
const x4Path = "/x4/data"

// snapshotWorkflow is the body of X4 on a bsfs testbed.
func snapshotWorkflow(tb *Testbed, mr *mapreduce.Cluster, opts AppOpts) ([]AppResult, error) {
	fs := tb.bsfsSvc.NewFS(0)
	half := opts.BytesPerMap * int64(opts.Maps) / 2

	// Snapshot 1: first half of the dataset.
	if err := writeSynthFile(tb, 0, x4Path, half); err != nil {
		return nil, err
	}
	snap1, err := latestVersion(fs, x4Path)
	if err != nil {
		return nil, err
	}
	// Snapshot 2: the full dataset.
	if err := appendSynth(fs, x4Path, half); err != nil {
		return nil, err
	}
	snap2, err := latestVersion(fs, x4Path)
	if err != nil {
		return nil, err
	}

	jobs := make([]AppResult, 2)
	var runErr firstError
	wg := tb.Env.NewWaitGroup()
	// A concurrent writer keeps growing the dataset while both jobs
	// run on their frozen snapshots.
	wg.Go(func() {
		if err := appendSynth(fs, x4Path, half/2); err != nil {
			runErr.set(fmt.Errorf("bench: x4 concurrent writer: %w", err))
		}
	})
	for i, snap := range []core.Version{snap1, snap2} {
		wg.Go(func() {
			job := apps.SyntheticGrep([]string{x4Path}, fmt.Sprintf("/x4/out%d", i+1))
			job.Name = fmt.Sprintf("grep-snap%d", i+1)
			job.OpenInput = openSnapshot(snap)
			r, err := submit(tb, mr, fmt.Sprintf("X4-snapshot-grep-%d", i+1), job)
			runErr.set(err)
			jobs[i] = r
		})
	}
	wg.Wait()
	if err := runErr.get(); err != nil {
		return nil, err
	}
	return jobs, nil
}

// latestVersion returns the newest published snapshot of a file.
func latestVersion(fs *bsfs.FS, path string) (core.Version, error) {
	vs, err := fs.Versions(path)
	if err == nil && len(vs) == 0 {
		err = fmt.Errorf("bench: %s has no versions", path)
	}
	if err != nil {
		return 0, err
	}
	return vs[len(vs)-1], nil
}

// appendSynth appends n synthetic bytes to an existing file.
func appendSynth(fs fsapi.FileSystem, path string, n int64) error {
	w, err := fs.Append(path)
	if err != nil {
		return err
	}
	if _, err := w.WriteSynthetic(n); err != nil {
		w.Close()
		return err
	}
	return w.Close()
}

// openSnapshot returns an OpenInput hook pinning a snapshot version,
// forwarding the framework's per-attempt options (ctx) alongside. On a
// non-versioning file system the AtVersion option surfaces the typed
// fsapi.ErrNotSupported.
func openSnapshot(version core.Version) func(fs fsapi.FileSystem, path string, opts ...fsapi.OpenOption) (fsapi.Reader, error) {
	return func(fs fsapi.FileSystem, path string, opts ...fsapi.OpenOption) (fsapi.Reader, error) {
		return fs.OpenAt(path, append(opts, fsapi.AtVersion(uint64(version)))...)
	}
}
