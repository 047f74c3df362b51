package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand/v2"
	"net"
	"os"
	"path/filepath"

	"repro/internal/bsfs"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/rpcnet"
)

// The wire workloads run a BSFS server in-process, composed the way
// cmd/bsfsd composes it (Local env, 256 KiB pages, 64 MiB blocks,
// replication 1, 4 providers), behind a loopback TCP listener, and
// drive it through rpcnet.Client. Unlike bsfsd, every role gets its own
// node IDs so each Env charge's destination names its layer, and the
// background placement sweep and heartbeat are off (the membership
// never changes, and a 10 s sweep would land in some timed windows and
// not others).
const (
	wirePage     = 256 << 10
	wireBlock    = 64 << 20
	wireReplicas = 1

	nodeClient    cluster.NodeID = 0 // the server's BSFS client (rpcnet's FS)
	nodeVM        cluster.NodeID = 1
	nodeNamespace cluster.NodeID = 2
	nodeDHT       cluster.NodeID = 3
	nodePlacement cluster.NodeID = 4
	firstProvider cluster.NodeID = 5
	numProviders                 = 4
)

func wireRoles() map[cluster.NodeID]role {
	roles := map[cluster.NodeID]role{
		nodeClient: roleClient, nodeVM: roleVM, nodeNamespace: roleNamespace,
		nodeDHT: roleDHT, nodePlacement: rolePlacement,
	}
	for i := range numProviders {
		roles[firstProvider+cluster.NodeID(i)] = roleProvider
	}
	return roles
}

// wireServer is one running in-process server.
type wireServer struct {
	dep     *core.Deployment
	ln      net.Listener
	serving cluster.WaitGroup
	addr    string
	// Traced servers only: the Env and listener wrappers.
	env     *tracedEnv
	counted *countingListener
}

// startServer deploys BSFS and serves it on a loopback port. storeSpec
// selects the providers' backend ("" = RAM only). Non-nil spans make a
// traced server: the Env and the listener are wrapped with counters,
// and Env charges are recorded as spans.
func startServer(storeSpec string, spans *spanLog) (*wireServer, error) {
	local := cluster.NewLocal(int(firstProvider)+numProviders, 0)
	var env cluster.Env = local
	s := &wireServer{}
	if spans != nil {
		s.env = newTracedEnv(local, wireRoles(), spans)
		env = s.env
	}
	providers := make([]cluster.NodeID, numProviders)
	for i := range providers {
		providers[i] = firstProvider + cluster.NodeID(i)
	}
	dep, err := core.NewDeployment(env, core.Options{
		PageSize:      wirePage,
		Replication:   wireReplicas,
		VMNode:        nodePlacement,
		VMNodes:       []cluster.NodeID{nodeVM},
		ProviderNodes: providers,
		MetaNodes:     []cluster.NodeID{nodeDHT},
		Provider:      core.ProviderConfig{Store: storeSpec},
	})
	if err != nil {
		return nil, fmt.Errorf("deploy: %w", err)
	}
	svc := bsfs.NewService(dep, bsfs.Config{NamespaceNode: nodeNamespace, BlockSize: wireBlock})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		dep.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	s.dep, s.ln, s.addr = dep, ln, ln.Addr().String()
	if spans != nil {
		s.counted = &countingListener{Listener: ln}
		s.ln = s.counted
	}
	s.serving = local.NewWaitGroup()
	s.serving.Go(func() { _ = rpcnet.Serve(s.ln, rpcnet.NewService(svc.NewFS(nodeClient))) }) // returns once the listener closes
	return s, nil
}

// stop closes the listener, waits for the accept loop to return and
// shuts the providers down. Clients close their connections first.
func (s *wireServer) stop() error {
	err := s.ln.Close()
	s.serving.Wait()
	if cerr := s.dep.Close(); err == nil {
		err = cerr
	}
	return err
}

// storeStats sums the providers' page-store counters.
func storeStats(dep *core.Deployment) (hits, misses, evictions uint64, memBytes int64) {
	for _, p := range dep.ProviderList() {
		st := p.Store().Stats()
		hits += st.Hits
		misses += st.Misses
		evictions += st.Evictions
		memBytes += st.MemBytes
	}
	return
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// ---------------------------------------------------------------------
// Seeded inputs.

// fillSeeded fills buf with bytes that are a pure function of (seed,
// stream).
func fillSeeded(buf []byte, seed, stream uint64) {
	r := rand.New(rand.NewPCG(seed, stream))
	i := 0
	for ; i+8 <= len(buf); i += 8 {
		binary.LittleEndian.PutUint64(buf[i:], r.Uint64())
	}
	for v := r.Uint64(); i < len(buf); i++ {
		buf[i] = byte(v)
		v >>= 8
	}
}

// Self-describing log records: a 24-byte header (magic, writer, seq,
// total length, CRC of the payload) and a payload that is a pure
// function of (seed, writer, seq), so a reader can check a record
// without any other state.
const (
	recMagic  = "PBREC001"
	recHeader = 24
	recSize   = 4 << 10
)

// recStream separates record payload streams from other seeded inputs.
func recStream(writer, seq uint32) uint64 { return 1<<63 | uint64(writer)<<32 | uint64(seq) }

func makeRecord(buf []byte, seed uint64, writer, seq uint32) {
	payload := buf[recHeader:]
	fillSeeded(payload, seed, recStream(writer, seq))
	copy(buf, recMagic)
	binary.LittleEndian.PutUint32(buf[8:], writer)
	binary.LittleEndian.PutUint32(buf[12:], seq)
	binary.LittleEndian.PutUint32(buf[16:], uint32(len(buf)))
	binary.LittleEndian.PutUint32(buf[20:], crc32.ChecksumIEEE(payload))
}

type recID struct{ writer, seq uint32 }

// checkLog parses a shared log back and checks that every acknowledged
// append appears exactly once and intact, that nothing else appears
// except appends whose outcome is unknown, and that the log holds
// nothing but whole records.
func checkLog(data []byte, seed uint64, acked, unknown map[recID]bool) error {
	seen := make(map[recID]bool, len(acked))
	want := make([]byte, recSize)
	for off := 0; off < len(data); {
		if len(data)-off < recHeader || string(data[off:off+8]) != recMagic {
			return fmt.Errorf("log: no record header at offset %d", off)
		}
		id := recID{binary.LittleEndian.Uint32(data[off+8:]), binary.LittleEndian.Uint32(data[off+12:])}
		n := int(binary.LittleEndian.Uint32(data[off+16:]))
		if n != recSize || off+n > len(data) {
			return fmt.Errorf("log: record %v at offset %d: bad length %d", id, off, n)
		}
		rec := data[off : off+n]
		if crc32.ChecksumIEEE(rec[recHeader:]) != binary.LittleEndian.Uint32(rec[20:]) {
			return fmt.Errorf("log: record %v at offset %d: checksum mismatch", id, off)
		}
		makeRecord(want, seed, id.writer, id.seq)
		if !bytes.Equal(rec, want) {
			return fmt.Errorf("log: record %v at offset %d: content mismatch", id, off)
		}
		if seen[id] {
			return fmt.Errorf("log: record %v appears twice", id)
		}
		if !acked[id] && !unknown[id] {
			return fmt.Errorf("log: record %v was never appended", id)
		}
		seen[id] = true
		off += n
	}
	for id := range acked {
		if !seen[id] {
			return fmt.Errorf("log: acknowledged record %v is missing", id)
		}
	}
	if len(unknown) == 0 && len(data) != len(acked)*recSize {
		return fmt.Errorf("log: %d bytes, want %d", len(data), len(acked)*recSize)
	}
	return nil
}

// ---------------------------------------------------------------------
// wire-bulk: one connection puts, then gets, a whole 128 MiB file.

const (
	bulkFileSize = 128 << 20
	bulkWarmSize = 16 << 20
)

// bulkFile is the outcome of putting and getting one file.
type bulkFile struct {
	putMs, getMs float64
	cpuMs        float64 // CPU over the put and get calls
	ops, failed  int64
	err          error // first failure or mismatch
}

// putGet puts data as path and gets it back through c, timing each
// call, then byte-compares the result outside the timed calls. spans,
// when non-nil, gets an op span per call.
func putGet(c *rpcnet.Client, path string, data []byte, spans *spanLog, env cluster.Env) bulkFile {
	var f bulkFile
	timed := func(name string, fn func() error) float64 {
		var id uint64
		if spans != nil {
			id = spans.beginOp(name, nodeClient, env.Now())
		}
		w := startWatch()
		err := fn()
		wall, cpu := w.stop()
		if spans != nil {
			spans.endOp(id, nodeClient, int64(len(data)), env.Now())
		}
		f.ops++
		f.cpuMs += ms(cpu)
		if err != nil {
			f.failed++
			if f.err == nil {
				f.err = fmt.Errorf("%s %s: %w", name, path, err)
			}
		}
		return ms(wall)
	}
	f.putMs = timed("put", func() error { return c.Put(path, data) })
	if f.err != nil {
		return f
	}
	var got []byte
	f.getMs = timed("get", func() (err error) { got, err = c.Get(path, 0); return err })
	if f.err == nil && !bytes.Equal(got, data) {
		f.failed++
		f.err = fmt.Errorf("get %s: content differs from the put (%d bytes back, %d put)", path, len(got), len(data))
	}
	return f
}

// ---------------------------------------------------------------------
// wire-records: two connections in a closed loop append 4 KiB records
// to one shared log; about one op in ten instead reads a 64 KiB record
// of a preloaded 128 MiB input file at a seeded offset.

const (
	recInputSize = 128 << 20
	recReadSize  = 64 << 10
	recWorkers   = 2
	recReadEvery = 10 // one op in ten is a read
	recInput     = "/records/input"
	recLog       = "/records/log"
)

// recordsPass is the outcome of one closed-loop pass.
type recordsPass struct {
	appendMs, readMs []float64
	wall, cpu        float64 // ms, whole pass
	appendBytes      int64
	readBytes        int64
	failed           int64
	acked, unknown   map[recID]bool
	err              error
}

// recordPlan returns worker w's op sequence: true is a read. Exactly
// one op in recReadEvery is a read, at seeded positions.
func recordPlan(seed uint64, w, ops int) []bool {
	plan := make([]bool, ops)
	for i := 0; i < ops/recReadEvery; i++ {
		plan[i] = true
	}
	r := rand.New(rand.NewPCG(seed, uint64(w)))
	r.Shuffle(len(plan), func(i, j int) { plan[i], plan[j] = plan[j], plan[i] })
	return plan
}

// runRecords drives the closed loop: each worker issues its ops one at
// a time over its own connection.
func runRecords(clients []*rpcnet.Client, input []byte, seed uint64, opsPerWorker int, spans *spanLog, env cluster.Env) recordsPass {
	p := recordsPass{acked: make(map[recID]bool), unknown: make(map[recID]bool)}
	type workerOut struct {
		appendMs, readMs []float64
		acked, unknown   []recID
		failed           int64
		err              error
	}
	outs := make([]workerOut, len(clients))
	wg := cluster.NewLocal(1, 0).NewWaitGroup()
	watch := startWatch()
	for w, c := range clients {
		plan := recordPlan(seed, w, opsPerWorker)
		out := &outs[w]
		wg.Go(func() {
			rng := rand.New(rand.NewPCG(seed, 1<<32|uint64(w)))
			rec := make([]byte, recSize)
			for i, isRead := range plan {
				name := "append"
				if isRead {
					name = "read"
				}
				var id uint64
				if spans != nil {
					id = spans.beginOp(name, nodeClient, env.Now())
				}
				t0 := wallNow()
				var err error
				var off int64
				var got []byte
				if isRead {
					off = rng.Int64N(recInputSize/recReadSize) * recReadSize
					got, err = c.ReadRange(recInput, 0, off, recReadSize)
				} else {
					makeRecord(rec, seed, uint32(w), uint32(i))
					err = c.Append(recLog, rec)
				}
				d := ms(since(t0))
				if spans != nil {
					n := int64(recSize)
					if isRead {
						n = recReadSize
					}
					spans.endOp(id, nodeClient, n, env.Now())
				}
				switch {
				case err != nil:
					out.failed++
					if out.err == nil {
						out.err = fmt.Errorf("%s: %w", name, err)
					}
					if !isRead {
						out.unknown = append(out.unknown, recID{uint32(w), uint32(i)})
					}
				case isRead:
					if !bytes.Equal(got, input[off:off+recReadSize]) {
						out.failed++
						if out.err == nil {
							out.err = fmt.Errorf("read %s at %d: content differs from the input", recInput, off)
						}
					}
					out.readMs = append(out.readMs, d)
				default:
					out.acked = append(out.acked, recID{uint32(w), uint32(i)})
					out.appendMs = append(out.appendMs, d)
				}
			}
		})
	}
	wg.Wait()
	wall, cpu := watch.stop()
	p.wall, p.cpu = ms(wall), ms(cpu)
	for _, o := range outs {
		p.appendMs = append(p.appendMs, o.appendMs...)
		p.readMs = append(p.readMs, o.readMs...)
		for _, id := range o.acked {
			p.acked[id] = true
		}
		for _, id := range o.unknown {
			p.unknown[id] = true
		}
		p.failed += o.failed
		if p.err == nil {
			p.err = o.err
		}
	}
	p.appendBytes = int64(len(p.appendMs)) * recSize
	p.readBytes = int64(len(p.readMs)) * recReadSize
	return p
}
