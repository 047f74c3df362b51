// Package rpcnet exposes a BSFS deployment over TCP using the standard
// library's net/rpc with gob encoding, so real remote clients
// (cmd/blobctl) can drive the file system hosted by cmd/bsfsd.
//
// This is the repository's "real wire" demonstration: the services
// themselves are the same objects the simulator runs; rpcnet is a thin
// veneer that serializes the fsapi surface (plus BSFS's versioning
// extensions) onto one listener.
//
// The data path fetches and copies each byte no more than it must.
// Reads are served at request granularity: a Read RPC fetches exactly its range from BlobSeer
// (bsfs.FS.ReadRange), because a one-shot remote read would throw away
// a prefetched block. BSFS's whole-block prefetch cache and readahead
// belong to readers that stay open, such as in-process MapReduce tasks.
// Client.Get sizes its result once from Stat and gob decodes each chunk
// straight into its window. Every data message stays under 10 MiB
// (MaxChunk reads, MaxVecChunks × MaxChunk vectored writes): gob reads
// a smaller message with one allocation, but grows a larger one in
// 10 MiB pieces.
package rpcnet

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/rpc"
	"strings"
	"sync"

	"repro/internal/bsfs"
	"repro/internal/cluster"
	"repro/internal/fsapi"
	"repro/internal/traffic"
)

// MaxChunk bounds a single read or write payload on the wire.
const MaxChunk = 4 << 20

// Service is the RPC-visible server. Exported methods follow net/rpc's
// (args, reply) convention.
type Service struct {
	fs *bsfs.FS

	mu      sync.Mutex
	nextID  uint64
	writers map[uint64]*wireWriter
}

// wireWriter is one open write handle plus the tenant it was opened
// under: every Write/WriteVec through the handle is admitted against
// that tenant's bucket.
type wireWriter struct {
	w      fsapi.Writer
	tenant string
}

// NewService wraps a BSFS client (typically node 0 of a Local env).
func NewService(fs *bsfs.FS) *Service {
	return &Service{fs: fs, writers: make(map[uint64]*wireWriter)}
}

// admit charges one RPC to the deployment's per-tenant admission
// limiter (the rpcnet ingress edge; rejections fail fast with the
// typed overload error — net/rpc flattens it to its message on the
// wire, which IsOverloaded recognizes client-side). Untenanted calls
// and servers without admission pass through.
func (s *Service) admit(tenant string) (func(), error) {
	lim := s.fs.Deployment().Admission
	if lim == nil || tenant == "" {
		return func() {}, nil
	}
	return lim.Admit(tenant)
}

// IsOverloaded reports whether err is an admission rejection — typed
// (server side) or flattened to its message by net/rpc (client side).
// Callers should back off and retry rather than tighten their loop.
func IsOverloaded(err error) bool {
	if err == nil {
		return false
	}
	return errors.Is(err, traffic.ErrOverloaded) || strings.Contains(err.Error(), "over admission rate")
}

// OpenArgs opens a file for writing. Tenant attributes the open and
// every write through the returned handle to an admission tenant
// (empty bypasses admission).
type OpenArgs struct {
	Path   string
	Append bool
	Tenant string
}

// OpenReply returns the write handle.
type OpenReply struct{ Handle uint64 }

// Open creates or opens a file for (appending) writes.
func (s *Service) Open(args *OpenArgs, reply *OpenReply) error {
	release, err := s.admit(args.Tenant)
	if err != nil {
		return err
	}
	defer release()
	var w fsapi.Writer
	if args.Append {
		w, err = s.fs.Append(args.Path)
	} else {
		w, err = s.fs.Create(args.Path)
	}
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.nextID++
	id := s.nextID
	s.writers[id] = &wireWriter{w: w, tenant: args.Tenant}
	s.mu.Unlock()
	reply.Handle = id
	return nil
}

// WriteArgs appends a chunk through a handle.
type WriteArgs struct {
	Handle uint64
	Data   []byte
}

// WriteReply reports bytes accepted.
type WriteReply struct{ N int }

// Write appends data through an open handle.
func (s *Service) Write(args *WriteArgs, reply *WriteReply) error {
	if len(args.Data) > MaxChunk {
		return fmt.Errorf("rpcnet: chunk %d exceeds max %d", len(args.Data), MaxChunk)
	}
	w, err := s.writer(args.Handle)
	if err != nil {
		return err
	}
	release, err := s.admit(w.tenant)
	if err != nil {
		return err
	}
	defer release()
	n, err := w.w.Write(args.Data)
	reply.N = n
	return err
}

// MaxVecChunks bounds the chunk count of one vectored write, so one
// WriteVec message carries at most 8 MiB and stays under gob's
// single-allocation size.
const MaxVecChunks = 2

// WriteVecArgs appends several chunks through a handle in one round
// trip — the wire-level face of the batched commit pipeline: the BSFS
// writer behind the handle queues the chunks' blocks and publishes
// them through the version manager's group-commit path.
type WriteVecArgs struct {
	Handle uint64
	Chunks [][]byte
}

// WriteVecReply reports the total bytes accepted across the chunks.
type WriteVecReply struct{ N int64 }

// WriteVec appends every chunk in order through an open handle,
// stopping at the first failure. net/rpc drops the reply when a
// handler errors, so a mid-batch error loses the accepted-byte count:
// callers must treat a failed vectored write as indeterminate (the
// writer behind the handle is poisoned anyway — see bsfs's writer
// error contract).
func (s *Service) WriteVec(args *WriteVecArgs, reply *WriteVecReply) error {
	if len(args.Chunks) > MaxVecChunks {
		return fmt.Errorf("rpcnet: %d chunks exceed max %d", len(args.Chunks), MaxVecChunks)
	}
	for _, c := range args.Chunks {
		if len(c) > MaxChunk {
			return fmt.Errorf("rpcnet: chunk %d exceeds max %d", len(c), MaxChunk)
		}
	}
	w, err := s.writer(args.Handle)
	if err != nil {
		return err
	}
	// One admission charge per vectored call: the batch is the unit of
	// work the client offered, and a rejected batch writes nothing.
	release, err := s.admit(w.tenant)
	if err != nil {
		return err
	}
	defer release()
	for _, c := range args.Chunks {
		n, err := w.w.Write(c)
		reply.N += int64(n)
		if err != nil {
			return err
		}
	}
	return nil
}

// CloseArgs closes a write handle.
type CloseArgs struct{ Handle uint64 }

// CloseReply is empty.
type CloseReply struct{}

// Close commits and releases a write handle.
func (s *Service) Close(args *CloseArgs, reply *CloseReply) error {
	s.mu.Lock()
	w, ok := s.writers[args.Handle]
	delete(s.writers, args.Handle)
	s.mu.Unlock()
	if !ok {
		return errors.New("rpcnet: unknown handle")
	}
	return w.w.Close()
}

func (s *Service) writer(id uint64) (*wireWriter, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	w, ok := s.writers[id]
	if !ok {
		return nil, errors.New("rpcnet: unknown handle")
	}
	return w, nil
}

// ReadArgs reads a byte range of a file (Version 0 = latest snapshot).
// Tenant attributes the read to an admission tenant (empty bypasses
// admission).
type ReadArgs struct {
	Path    string
	Version uint64
	Off     int64
	Len     int64
	Tenant  string
}

// ReadReply carries the bytes (short at EOF).
type ReadReply struct{ Data []byte }

// Read returns up to Len bytes at Off of the requested snapshot,
// fetching exactly that range (no block prefetch).
func (s *Service) Read(args *ReadArgs, reply *ReadReply) error {
	if args.Off < 0 || args.Len < 0 {
		return fmt.Errorf("rpcnet: read of %d bytes at %d: negative offset or length", args.Len, args.Off)
	}
	if args.Len > MaxChunk {
		return fmt.Errorf("rpcnet: read %d exceeds max %d", args.Len, MaxChunk)
	}
	release, err := s.admit(args.Tenant)
	if err != nil {
		return err
	}
	defer release()
	var opts []fsapi.OpenOption
	if args.Version != 0 {
		opts = append(opts, fsapi.AtVersion(args.Version))
	}
	buf := make([]byte, args.Len)
	n, err := s.fs.ReadRange(args.Path, buf, args.Off, opts...)
	if err != nil && !errors.Is(err, io.EOF) {
		return err
	}
	reply.Data = buf[:n]
	return nil
}

// PathArgs names a path.
type PathArgs struct{ Path string }

// StatReply describes a file.
type StatReply struct {
	Path  string
	Size  int64
	IsDir bool
}

// Stat describes a path.
func (s *Service) Stat(args *PathArgs, reply *StatReply) error {
	fi, err := s.fs.Stat(args.Path)
	if err != nil {
		return err
	}
	*reply = StatReply{Path: fi.Path, Size: fi.Size, IsDir: fi.IsDir}
	return nil
}

// ListReply lists directory entries.
type ListReply struct{ Entries []StatReply }

// List enumerates a directory.
func (s *Service) List(args *PathArgs, reply *ListReply) error {
	infos, err := s.fs.List(args.Path)
	if err != nil {
		return err
	}
	for _, fi := range infos {
		reply.Entries = append(reply.Entries, StatReply{Path: fi.Path, Size: fi.Size, IsDir: fi.IsDir})
	}
	return nil
}

// Mkdir creates a directory.
func (s *Service) Mkdir(args *PathArgs, reply *CloseReply) error {
	return s.fs.Mkdir(args.Path)
}

// Delete removes a file or empty directory.
func (s *Service) Delete(args *PathArgs, reply *CloseReply) error {
	return s.fs.Delete(args.Path)
}

// RenameArgs moves a path.
type RenameArgs struct{ Old, New string }

// Rename moves a file or directory.
func (s *Service) Rename(args *RenameArgs, reply *CloseReply) error {
	return s.fs.Rename(args.Old, args.New)
}

// VersionsReply lists a file's published snapshots.
type VersionsReply struct{ Versions []uint64 }

// Versions lists the snapshots of a file.
func (s *Service) Versions(args *PathArgs, reply *VersionsReply) error {
	vs, err := s.fs.Versions(args.Path)
	if err != nil {
		return err
	}
	for _, v := range vs {
		reply.Versions = append(reply.Versions, uint64(v))
	}
	return nil
}

// ShardsArgs optionally names a path; empty describes the tier only.
type ShardsArgs struct{ Path string }

// ShardsReply describes the server's version-manager tier and, when a
// path was given, the file's owning shard.
type ShardsReply struct {
	// Count is the shard count; Nodes lists the shard hosting nodes in
	// shard-index order.
	Count int
	Nodes []uint64
	// Blob and Shard are set when a path was supplied: the blob id
	// behind the file and its owning shard index (Blob mod Count).
	Blob  uint64
	Shard int
}

// Shards exposes the version-manager tier topology — the shard-aware
// face of the service: remote tooling can see how blobs partition
// without reaching into the deployment.
func (s *Service) Shards(args *ShardsArgs, reply *ShardsReply) error {
	nodes := s.fs.VMShardNodes()
	reply.Count = len(nodes)
	for _, n := range nodes {
		reply.Nodes = append(reply.Nodes, uint64(n))
	}
	if args.Path != "" {
		blob, shard, err := s.fs.ShardOf(args.Path)
		if err != nil {
			return err
		}
		reply.Blob, reply.Shard = uint64(blob), shard
	}
	return nil
}

// ProvidersArgs is empty (reserved for future filters).
type ProvidersArgs struct{}

// ProviderInfo describes one member of the provider fleet.
type ProviderInfo struct {
	Node   uint64
	Health string // "up", "down", or "draining"
	// Entries and Resident describe the RAM page cache; Dirty is the
	// bytes not yet persisted to the durable log; Stored is the
	// cumulative bytes ever ingested.
	Entries  int
	Resident int64
	Dirty    int64
	Stored   int64
	// Backend is the persistent tier's spec ("" for a pure RAM store);
	// Recovered is the number of pages replayed from it at startup.
	Backend   string
	Recovered int
}

// ProvidersReply lists the provider fleet as of a membership epoch.
type ProvidersReply struct {
	Epoch     uint64
	Providers []ProviderInfo
}

// Providers reports the provider membership with per-node health and
// store occupancy — the operator's view of the placement subsystem.
func (s *Service) Providers(args *ProvidersArgs, reply *ProvidersReply) error {
	dep := s.fs.Deployment()
	reply.Epoch = dep.Placement.Epoch()
	for _, m := range dep.Placement.Members() {
		info := ProviderInfo{Node: uint64(m.Node), Health: m.Health.String()}
		if p := dep.Provider(m.Node); p != nil {
			st := p.Store().Stats()
			info.Entries = st.Entries
			info.Resident = st.MemBytes
			info.Dirty = p.Store().DirtyBytes()
			info.Stored = p.BytesStored()
			info.Backend = p.Store().BackendSpec()
			info.Recovered = st.Recovered
		}
		reply.Providers = append(reply.Providers, info)
	}
	return nil
}

// TenantsArgs is empty (reserved for future filters).
type TenantsArgs struct{}

// TenantInfo is one tenant's admission counters.
type TenantInfo struct {
	Tenant   string
	Admitted uint64
	Rejected uint64
	Inflight int
}

// TenantsReply describes the server's admission configuration and
// every tenant the limiter has seen.
type TenantsReply struct {
	// Enabled is false when the server runs without admission
	// (-tenant-rate 0); Rate/Burst and Tenants are then empty.
	Enabled bool
	Rate    float64 // admitted ops/sec per tenant
	Burst   float64 // bucket depth
	Tenants []TenantInfo
}

// Tenants reports per-tenant admitted/rejected/inflight counters from
// the admission layer — the operator's view of who is over rate.
func (s *Service) Tenants(args *TenantsArgs, reply *TenantsReply) error {
	lim := s.fs.Deployment().Admission
	if lim == nil {
		return nil
	}
	reply.Enabled = true
	reply.Rate, reply.Burst = lim.Rate(), lim.Burst()
	for _, st := range lim.Stats() {
		reply.Tenants = append(reply.Tenants, TenantInfo{
			Tenant:   st.Tenant,
			Admitted: st.Admitted,
			Rejected: st.Rejected,
			Inflight: st.Inflight,
		})
	}
	return nil
}

// NodeArgs names a provider node. For Join, 0 auto-allocates the next
// unused node id.
type NodeArgs struct{ Node uint64 }

// NodeReply reports the affected node and the membership epoch after
// the operation.
type NodeReply struct {
	Node  uint64
	Epoch uint64
}

// Join starts a new provider and adds it to the placement membership;
// the background placement loop migrates its ring share onto it.
func (s *Service) Join(args *NodeArgs, reply *NodeReply) error {
	dep := s.fs.Deployment()
	node := cluster.NodeID(args.Node)
	if node == 0 {
		// Auto-allocate past every node the deployment knows about.
		for _, n := range dep.Placement.Fleet() {
			if n >= node {
				node = n + 1
			}
		}
		for _, n := range dep.VM.Nodes() {
			if n >= node {
				node = n + 1
			}
		}
	}
	if _, err := dep.AddProvider(node); err != nil {
		return err
	}
	reply.Node, reply.Epoch = uint64(node), dep.Placement.Epoch()
	return nil
}

// Leave removes a provider from the membership and stops it. Replicas
// it held are restored by the placement loop; drain first for a
// graceful exit that never dips below the replication target.
func (s *Service) Leave(args *NodeArgs, reply *NodeReply) error {
	dep := s.fs.Deployment()
	if err := dep.RemoveProvider(cluster.NodeID(args.Node)); err != nil {
		return err
	}
	reply.Node, reply.Epoch = args.Node, dep.Placement.Epoch()
	return nil
}

// Drain marks a provider draining: it keeps serving reads, receives no
// new placements, and the placement loop migrates its pages away.
func (s *Service) Drain(args *NodeArgs, reply *NodeReply) error {
	dep := s.fs.Deployment()
	if err := dep.DrainProvider(cluster.NodeID(args.Node)); err != nil {
		return err
	}
	reply.Node, reply.Epoch = args.Node, dep.Placement.Epoch()
	return nil
}

// Serve accepts connections on l until it is closed.
func Serve(l net.Listener, svc *Service) error {
	srv := rpc.NewServer()
	if err := srv.RegisterName("BSFS", svc); err != nil {
		return err
	}
	// Connection handlers spawn through the service's Env so the sim
	// scheduler (and leak hygiene under Local) can see them; they are
	// daemons because an open client connection must not keep a
	// simulation alive.
	env := svc.fs.Deployment().Env
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		env.Daemon(func() { srv.ServeConn(conn) })
	}
}

// Client is a convenience wrapper over the raw RPC connection.
// Tenant, when set, attributes every subsequent data operation (Put,
// Append, Get, ReadRange) to that admission tenant; over-rate calls
// fail with an error IsOverloaded recognizes.
type Client struct {
	rpc    *rpc.Client
	Tenant string
}

// Dial connects to a bsfsd server.
func Dial(addr string) (*Client, error) {
	c, err := rpc.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Client{rpc: c}, nil
}

// Close releases the connection.
func (c *Client) Close() error { return c.rpc.Close() }

// Put streams data into a new file.
func (c *Client) Put(path string, data []byte) error {
	return c.stream(path, false, data)
}

// Append streams data onto an existing file.
func (c *Client) Append(path string, data []byte) error {
	return c.stream(path, true, data)
}

func (c *Client) stream(path string, app bool, data []byte) error {
	var open OpenReply
	if err := c.rpc.Call("BSFS.Open", &OpenArgs{Path: path, Append: app, Tenant: c.Tenant}, &open); err != nil {
		return err
	}
	// Batch up to MaxVecChunks chunks per vectored call, amortizing the
	// RPC round trip the same way the server-side pipeline amortizes
	// version-manager round trips.
	for off := 0; off < len(data); {
		var chunks [][]byte
		for len(chunks) < MaxVecChunks && off < len(data) {
			end := off + MaxChunk
			if end > len(data) {
				end = len(data)
			}
			chunks = append(chunks, data[off:end])
			off = end
		}
		var wr WriteVecReply
		if err := c.rpc.Call("BSFS.WriteVec", &WriteVecArgs{Handle: open.Handle, Chunks: chunks}, &wr); err != nil {
			return err
		}
	}
	var cl CloseReply
	return c.rpc.Call("BSFS.Close", &CloseArgs{Handle: open.Handle}, &cl)
}

// Get reads a whole file (or snapshot version; 0 = latest). The result
// is allocated once, sized from Stat, and each chunk is decoded in
// place: gob fills a reply slice whose capacity already fits.
func (c *Client) Get(path string, version uint64) ([]byte, error) {
	st, err := c.Stat(path)
	if err != nil {
		return nil, err
	}
	out := make([]byte, st.Size)
	var got int64
	for got < st.Size {
		l := min(int64(MaxChunk), st.Size-got)
		rr := ReadReply{Data: out[got : got : got+l]}
		if err := c.rpc.Call("BSFS.Read", &ReadArgs{Path: path, Version: version, Off: got, Len: l, Tenant: c.Tenant}, &rr); err != nil {
			return nil, err
		}
		if int64(len(rr.Data)) > l {
			return nil, fmt.Errorf("rpcnet: read of %d bytes returned %d", l, len(rr.Data))
		}
		got += int64(len(rr.Data))
		if int64(len(rr.Data)) < l {
			break
		}
	}
	return out[:got], nil
}

// ReadRange reads length bytes at off.
func (c *Client) ReadRange(path string, version uint64, off, length int64) ([]byte, error) {
	var rr ReadReply
	err := c.rpc.Call("BSFS.Read", &ReadArgs{Path: path, Version: version, Off: off, Len: length, Tenant: c.Tenant}, &rr)
	return rr.Data, err
}

// Stat describes a path.
func (c *Client) Stat(path string) (StatReply, error) {
	var st StatReply
	err := c.rpc.Call("BSFS.Stat", &PathArgs{Path: path}, &st)
	return st, err
}

// List enumerates a directory.
func (c *Client) List(path string) ([]StatReply, error) {
	var lr ListReply
	err := c.rpc.Call("BSFS.List", &PathArgs{Path: path}, &lr)
	return lr.Entries, err
}

// Mkdir creates a directory.
func (c *Client) Mkdir(path string) error {
	var r CloseReply
	return c.rpc.Call("BSFS.Mkdir", &PathArgs{Path: path}, &r)
}

// Delete removes a path.
func (c *Client) Delete(path string) error {
	var r CloseReply
	return c.rpc.Call("BSFS.Delete", &PathArgs{Path: path}, &r)
}

// Rename moves a path.
func (c *Client) Rename(oldPath, newPath string) error {
	var r CloseReply
	return c.rpc.Call("BSFS.Rename", &RenameArgs{Old: oldPath, New: newPath}, &r)
}

// Versions lists a file's snapshots.
func (c *Client) Versions(path string) ([]uint64, error) {
	var vr VersionsReply
	err := c.rpc.Call("BSFS.Versions", &PathArgs{Path: path}, &vr)
	return vr.Versions, err
}

// Shards describes the server's version-manager tier; a non-empty path
// additionally resolves that file's blob id and owning shard.
func (c *Client) Shards(path string) (ShardsReply, error) {
	var sr ShardsReply
	err := c.rpc.Call("BSFS.Shards", &ShardsArgs{Path: path}, &sr)
	return sr, err
}

// Providers lists the provider fleet with health and store occupancy.
func (c *Client) Providers() (ProvidersReply, error) {
	var pr ProvidersReply
	err := c.rpc.Call("BSFS.Providers", &ProvidersArgs{}, &pr)
	return pr, err
}

// Tenants lists per-tenant admission counters.
func (c *Client) Tenants() (TenantsReply, error) {
	var tr TenantsReply
	err := c.rpc.Call("BSFS.Tenants", &TenantsArgs{}, &tr)
	return tr, err
}

// Join adds a provider on node (0 auto-allocates), returning the node
// chosen and the new membership epoch.
func (c *Client) Join(node uint64) (NodeReply, error) {
	var nr NodeReply
	err := c.rpc.Call("BSFS.Join", &NodeArgs{Node: node}, &nr)
	return nr, err
}

// Leave removes a provider from the fleet.
func (c *Client) Leave(node uint64) (NodeReply, error) {
	var nr NodeReply
	err := c.rpc.Call("BSFS.Leave", &NodeArgs{Node: node}, &nr)
	return nr, err
}

// Drain marks a provider draining so its pages migrate away.
func (c *Client) Drain(node uint64) (NodeReply, error) {
	var nr NodeReply
	err := c.rpc.Call("BSFS.Drain", &NodeArgs{Node: node}, &nr)
	return nr, err
}
