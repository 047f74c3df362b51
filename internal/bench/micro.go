// micro.go runs the paper's §IV.B microbenchmarks: N concurrent
// clients hitting the storage layer directly through its file-system
// interface.
package bench

import (
	"fmt"
	"time"

	"repro/internal/cluster"
)

// settleTime is the virtual-time pause between the load phase and the
// measured phase of read benchmarks: the flush daemons drain their
// write backlog, so readers face settled caches (LRU-resident up to
// MemCapacity, the rest on disk) exactly as on a testbed where data
// was loaded earlier.
const settleTime = 120 * time.Second

// MicroOpts parameterizes a microbenchmark run.
type MicroOpts struct {
	Clients int
	// BytesPerClient is the data each client reads or writes (the
	// paper uses 1 GB).
	BytesPerClient int64
	// RecordSize splits reads into individual requests of this size
	// (0 = one streaming request). MapReduce reads small records; the
	// client-cache ablation (A2) depends on this.
	RecordSize int64
	Storage    StorageOpts
	Spec       ClusterSpec
}

func (o *MicroOpts) fillDefaults() {
	if o.Clients <= 0 {
		o.Clients = 1
	}
	if o.BytesPerClient <= 0 {
		o.BytesPerClient = 1 * GB
	}
}

// RunReadDistinct is experiment E1: clients concurrently read from
// different files (map phase over distinct inputs). Files are
// pre-loaded from nodes far from their readers.
func RunReadDistinct(opts MicroOpts) (Point, error) {
	opts.fillDefaults()
	tb, err := NewTestbed(opts.Spec, opts.Storage)
	if err != nil {
		return Point{}, err
	}
	clients := tb.clientNodes(opts.Clients)
	durations := make([]time.Duration, opts.Clients)
	var makespan time.Duration
	var netBytes, diskBytes int64
	var runErr firstError
	err = tb.Run(func() {
		// Load phase: each file written by the node opposite its
		// reader on the ring.
		wg := tb.Env.NewWaitGroup()
		for i, c := range clients {
			loader := tb.loaderNode(c)
			path := fmt.Sprintf("/e1/f%04d", i)
			wg.Go(func() {
				runErr.set(writeSynthFile(tb, loader, path, opts.BytesPerClient))
			})
		}
		wg.Wait()
		if runErr.get() != nil {
			return
		}
		tb.Env.Sleep(settleTime)

		// Measured phase.
		net0, disk0 := resourceSnapshot(tb)
		start := tb.Env.Now()
		wg = tb.Env.NewWaitGroup()
		for i, c := range clients {
			path := fmt.Sprintf("/e1/f%04d", i)
			wg.Go(func() {
				t0 := tb.Env.Now()
				runErr.set(readSynthFile(tb, c, path, 0, opts.BytesPerClient, opts.RecordSize))
				durations[i] = tb.Env.Now() - t0
			})
		}
		wg.Wait()
		makespan = tb.Env.Now() - start
		net1, disk1 := resourceSnapshot(tb)
		netBytes, diskBytes = net1-net0, disk1-disk0
	})
	if err == nil {
		err = runErr.get()
	}
	p := summarize("E1-read-distinct", tb.Kind, opts.BytesPerClient, durations, makespan)
	p.NetBytes, p.DiskBytes = netBytes, diskBytes
	return p, err
}

// RunReadShared is experiment E2: clients concurrently read disjoint
// parts of the same huge file (map phase over one shared input).
func RunReadShared(opts MicroOpts) (Point, error) {
	opts.fillDefaults()
	tb, err := NewTestbed(opts.Spec, opts.Storage)
	if err != nil {
		return Point{}, err
	}
	clients := tb.clientNodes(opts.Clients)
	total := opts.BytesPerClient * int64(opts.Clients)
	durations := make([]time.Duration, opts.Clients)
	var makespan time.Duration
	var netBytes, diskBytes int64
	var runErr firstError
	err = tb.Run(func() {
		// Load phase: one huge file written from the master node (not
		// a storage node, so HDFS places chunks fleet-wide).
		if err := writeSynthFile(tb, 0, "/e2/huge", total); err != nil {
			runErr.set(err)
			return
		}
		tb.Env.Sleep(settleTime)
		net0, disk0 := resourceSnapshot(tb)
		start := tb.Env.Now()
		wg := tb.Env.NewWaitGroup()
		for i, c := range clients {
			off := int64(i) * opts.BytesPerClient
			wg.Go(func() {
				t0 := tb.Env.Now()
				runErr.set(readSynthFile(tb, c, "/e2/huge", off, opts.BytesPerClient, opts.RecordSize))
				durations[i] = tb.Env.Now() - t0
			})
		}
		wg.Wait()
		makespan = tb.Env.Now() - start
		net1, disk1 := resourceSnapshot(tb)
		netBytes, diskBytes = net1-net0, disk1-disk0
	})
	if err == nil {
		err = runErr.get()
	}
	p := summarize("E2-read-shared", tb.Kind, opts.BytesPerClient, durations, makespan)
	p.NetBytes, p.DiskBytes = netBytes, diskBytes
	return p, err
}

// RunWriteDistinct is experiment E3: clients concurrently write to
// different files (reduce phase writing distinct outputs).
func RunWriteDistinct(opts MicroOpts) (Point, error) {
	opts.fillDefaults()
	tb, err := NewTestbed(opts.Spec, opts.Storage)
	if err != nil {
		return Point{}, err
	}
	clients := tb.clientNodes(opts.Clients)
	durations := make([]time.Duration, opts.Clients)
	var makespan time.Duration
	var netBytes, diskBytes int64
	var runErr firstError
	err = tb.Run(func() {
		net0, disk0 := resourceSnapshot(tb)
		start := tb.Env.Now()
		wg := tb.Env.NewWaitGroup()
		for i, c := range clients {
			path := fmt.Sprintf("/e3/out%04d", i)
			wg.Go(func() {
				t0 := tb.Env.Now()
				runErr.set(writeSynthFile(tb, c, path, opts.BytesPerClient))
				durations[i] = tb.Env.Now() - t0
			})
		}
		wg.Wait()
		makespan = tb.Env.Now() - start
		net1, disk1 := resourceSnapshot(tb)
		netBytes, diskBytes = net1-net0, disk1-disk0
	})
	if err == nil {
		err = runErr.get()
	}
	p := summarize("E3-write-distinct", tb.Kind, opts.BytesPerClient, durations, makespan)
	p.NetBytes, p.DiskBytes = netBytes, diskBytes
	return p, err
}

// RunAppendShared is extension X1 (§V future work): clients
// concurrently append to the same file. Only BSFS supports it; running
// it against HDFS returns the unsupported error, which is itself the
// paper's point.
func RunAppendShared(opts MicroOpts) (Point, error) {
	opts.fillDefaults()
	tb, err := NewTestbed(opts.Spec, opts.Storage)
	if err != nil {
		return Point{}, err
	}
	clients := tb.clientNodes(opts.Clients)
	durations := make([]time.Duration, opts.Clients)
	var makespan time.Duration
	var netBytes, diskBytes int64
	var runErr firstError
	err = tb.Run(func() {
		fs := tb.NewFS(0)
		w, err := fs.Create("/x1/shared")
		if err != nil {
			runErr.set(err)
			return
		}
		if err := w.Close(); err != nil {
			runErr.set(err)
			return
		}
		net0, disk0 := resourceSnapshot(tb)
		start := tb.Env.Now()
		wg := tb.Env.NewWaitGroup()
		for i, c := range clients {
			wg.Go(func() {
				t0 := tb.Env.Now()
				cfs := tb.NewFS(c)
				aw, err := cfs.Append("/x1/shared")
				if err != nil {
					runErr.set(err)
					return
				}
				if _, err := aw.WriteSynthetic(opts.BytesPerClient); err != nil {
					runErr.set(err)
				}
				runErr.set(aw.Close())
				durations[i] = tb.Env.Now() - t0
			})
		}
		wg.Wait()
		makespan = tb.Env.Now() - start
		net1, disk1 := resourceSnapshot(tb)
		netBytes, diskBytes = net1-net0, disk1-disk0

		// Validate the tiling: total size must equal the sum of appends.
		fi, err := tb.NewFS(0).Stat("/x1/shared")
		if err == nil && fi.Size != opts.BytesPerClient*int64(opts.Clients) {
			runErr.set(fmt.Errorf("bench: shared append lost data: size %d", fi.Size))
		}
	})
	if err == nil {
		err = runErr.get()
	}
	p := summarize("X1-append-shared", tb.Kind, opts.BytesPerClient, durations, makespan)
	p.NetBytes, p.DiskBytes = netBytes, diskBytes
	return p, err
}

// writeSynthFile writes a synthetic file of the given size from a node.
func writeSynthFile(tb *Testbed, node cluster.NodeID, path string, size int64) error {
	fs := tb.NewFS(node)
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

// readSynthFile streams length bytes at off of a file from a node,
// optionally as a sequence of record-sized requests.
func readSynthFile(tb *Testbed, node cluster.NodeID, path string, off, length, recordSize int64) error {
	fs := tb.NewFS(node)
	r, err := fs.Open(path)
	if err != nil {
		return err
	}
	defer r.Close()
	if recordSize <= 0 {
		recordSize = length
	}
	var done int64
	for done < length {
		want := recordSize
		if done+want > length {
			want = length - done
		}
		n, err := r.ReadSyntheticAt(off+done, want)
		if err != nil {
			return err
		}
		if n != want {
			return fmt.Errorf("bench: short read: %d of %d at %d", n, want, off+done)
		}
		done += want
	}
	return nil
}
