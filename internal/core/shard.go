// shard.go implements the sharded version-manager tier: N independent
// VersionManager shards hosted on Options.VMNodes, glued together by a
// thin VersionRouter.
//
// Partitioning is per blob. Shard i allocates blob ids congruent to i
// modulo the shard count (per-shard stride/offset, see version.go), so
// the owning shard of any blob is the pure function id mod shards —
// the low bits of the id ARE the routing table. No lookup RPC, no
// shared state between shards: each keeps its own blob table,
// group-commit drainer and publication frontiers, and aggregate
// publish throughput scales with the shard count (experiment X5).
//
// A single-shard router is byte-for-byte the paper's centralized
// version manager: shard 0 of stride 1 allocates the dense sequence
// 1, 2, 3, ... and every operation routes to it.
package core

import (
	"sort"
	"sync"
	"time"

	"repro/internal/cluster"
)

// VersionRouter fronts the version-manager shards of a deployment. It
// carries no per-blob state of its own — routing is computed from the
// blob id — so it is safe for concurrent use and adds no round trips.
type VersionRouter struct {
	shards []*VersionManager

	// next is the round-robin cursor CreateBlob uses to spread new
	// blobs over the shards.
	mu   sync.Mutex
	next int
}

// NewVersionRouter builds the version-manager tier: one shard per
// entry of nodes, hosted on that node.
func NewVersionRouter(env cluster.Env, nodes []cluster.NodeID) *VersionRouter {
	if len(nodes) == 0 {
		panic("core: version-manager tier needs at least one node")
	}
	r := &VersionRouter{shards: make([]*VersionManager, len(nodes))}
	for i, n := range nodes {
		r.shards[i] = NewVersionManagerShard(env, n, i, len(nodes))
	}
	return r
}

// NumShards returns the shard count.
func (r *VersionRouter) NumShards() int { return len(r.shards) }

// Shards returns the shard managers in shard-index order.
func (r *VersionRouter) Shards() []*VersionManager { return r.shards }

// Nodes returns the shard hosting nodes in shard-index order.
func (r *VersionRouter) Nodes() []cluster.NodeID {
	out := make([]cluster.NodeID, len(r.shards))
	for i, s := range r.shards {
		out[i] = s.Node()
	}
	return out
}

// ShardIndex returns the owning shard index of a blob: the id modulo
// the shard count. Pure function — callers never pay a routing RPC.
func (r *VersionRouter) ShardIndex(blob BlobID) int {
	return int(blob % BlobID(len(r.shards)))
}

// Shard returns the owning shard manager of a blob.
func (r *VersionRouter) Shard(blob BlobID) *VersionManager {
	return r.shards[r.ShardIndex(blob)]
}

// SetServiceTime forwards the modeled per-RPC processing occupancy to
// every shard. Call before concurrent use.
func (r *VersionRouter) SetServiceTime(d time.Duration) {
	for _, s := range r.shards {
		s.SetServiceTime(d)
	}
}

// SetApplyTime forwards the modeled group-commit apply occupancy to
// every shard. Call before concurrent use.
func (r *VersionRouter) SetApplyTime(d time.Duration) {
	for _, s := range r.shards {
		s.SetApplyTime(d)
	}
}

// SetDrainBatch forwards the drainer's per-pass budget to every
// shard. Call before concurrent use.
func (r *VersionRouter) SetDrainBatch(n int) {
	for _, s := range r.shards {
		s.SetDrainBatch(n)
	}
}

// CreateBlob registers a new blob on the next shard of the round-robin
// rotation and returns its id (which encodes the shard).
func (r *VersionRouter) CreateBlob(from cluster.NodeID, pageSize int64) (BlobID, error) {
	r.mu.Lock()
	s := r.shards[r.next]
	r.next = (r.next + 1) % len(r.shards)
	r.mu.Unlock()
	return s.CreateBlob(from, pageSize)
}

// Blobs lists every registered blob id across all shards in ascending
// id order — the repair sweep's merged cross-shard work list. One
// round trip per shard.
func (r *VersionRouter) Blobs(from cluster.NodeID) []BlobID {
	var out []BlobID
	for _, s := range r.shards {
		out = append(out, s.Blobs(from)...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// The remaining operations address one blob and forward to its owning
// shard; they are the version-manager API surface clients consume.

// PageSize returns the blob's page size.
func (r *VersionRouter) PageSize(from cluster.NodeID, blob BlobID) (int64, error) {
	return r.Shard(blob).PageSize(from, blob)
}

// RequestTicket assigns the next version of a blob (see
// VersionManager.RequestTicket).
func (r *VersionRouter) RequestTicket(from cluster.NodeID, blob BlobID, off, length int64, sinceVersion Version) (Ticket, error) {
	return r.Shard(blob).RequestTicket(from, blob, off, length, sinceVersion)
}

// RequestTickets assigns consecutive versions to a batch of writes in
// one round trip to the owning shard.
func (r *VersionRouter) RequestTickets(from cluster.NodeID, blob BlobID, intents []WriteIntent, sinceVersion Version) ([]Ticket, error) {
	return r.Shard(blob).RequestTickets(from, blob, intents, sinceVersion)
}

// Publish declares a version fully written and blocks until visible
// (or ctx is canceled).
func (r *VersionRouter) Publish(ctx *cluster.Ctx, from cluster.NodeID, blob BlobID, v Version) error {
	return r.Shard(blob).Publish(ctx, from, blob, v)
}

// PublishBatch publishes several versions of one blob in one round
// trip to the owning shard.
func (r *VersionRouter) PublishBatch(ctx *cluster.Ctx, from cluster.NodeID, blob BlobID, vs []Version) error {
	return r.Shard(blob).PublishBatch(ctx, from, blob, vs)
}

// PublishBatchAsync marks versions ready without awaiting visibility.
func (r *VersionRouter) PublishBatchAsync(from cluster.NodeID, blob BlobID, vs []Version) error {
	return r.Shard(blob).PublishBatchAsync(from, blob, vs)
}

// Abort tombstones a pending version.
func (r *VersionRouter) Abort(from cluster.NodeID, blob BlobID, v Version) error {
	return r.Shard(blob).Abort(from, blob, v)
}

// AbortBatch tombstones every still-pending member of a version batch
// in one round trip to the owning shard (see VersionManager.AbortBatch
// for the prefix guarantee).
func (r *VersionRouter) AbortBatch(from cluster.NodeID, blob BlobID, vs []Version) error {
	return r.Shard(blob).AbortBatch(from, blob, vs)
}

// AwaitPublished blocks until the blob's publication frontier reaches
// v (or ctx is canceled).
func (r *VersionRouter) AwaitPublished(ctx *cluster.Ctx, from cluster.NodeID, blob BlobID, v Version) error {
	return r.Shard(blob).AwaitPublished(ctx, from, blob, v)
}

// Latest returns the newest published, non-aborted version and its size.
func (r *VersionRouter) Latest(from cluster.NodeID, blob BlobID) (Version, int64, error) {
	return r.Shard(blob).Latest(from, blob)
}

// LatestRecord returns the newest published, non-aborted version's record.
func (r *VersionRouter) LatestRecord(from cluster.NodeID, blob BlobID) (WriteRecord, bool, error) {
	return r.Shard(blob).LatestRecord(from, blob)
}

// Clone branches a new blob off a published snapshot of the source;
// the clone's id is allocated on the source's shard.
func (r *VersionRouter) Clone(from cluster.NodeID, source BlobID, v Version) (BlobID, error) {
	return r.Shard(source).Clone(from, source, v)
}

// GetVersion returns the record of a published version.
func (r *VersionRouter) GetVersion(from cluster.NodeID, blob BlobID, v Version) (WriteRecord, error) {
	return r.Shard(blob).GetVersion(from, blob, v)
}

// Records returns the write records of every version up to the blob's
// publication frontier.
func (r *VersionRouter) Records(from cluster.NodeID, blob BlobID) ([]WriteRecord, error) {
	return r.Shard(blob).Records(from, blob)
}

// Published returns the blob's highest published version.
func (r *VersionRouter) Published(from cluster.NodeID, blob BlobID) (Version, error) {
	return r.Shard(blob).Published(from, blob)
}
