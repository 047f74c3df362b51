package main

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
)

// role is the deployment role of the node an Env charge is addressed
// to. The benchmark's wire deployment puts every role on its own node
// IDs, so a charge's destination tells which layer it paid for.
type role uint8

const (
	roleOther role = iota
	roleClient
	roleVM
	roleNamespace
	roleDHT
	rolePlacement
	roleProvider
	// roleMaster is a node hosting several control roles at once (the
	// simulator testbed's node 0: version manager, namespace and
	// placement manager).
	roleMaster
	numRoles
)

var roleNames = [numRoles]string{"other", "client", "vm", "namespace", "dht", "placement", "provider", "master"}

func (r role) String() string { return roleNames[r] }

// chargeKind is the Env method a charge came through.
type chargeKind uint8

const (
	kindRTT chargeKind = iota
	kindOneWay
	kindUnicast
	kindScatter
	kindGather
	kindPipeline
	kindDiskRead
	kindDiskWrite
	numKinds
)

var kindNames = [numKinds]string{"rtt", "oneway", "unicast", "scatter", "gather", "pipeline", "disk_read", "disk_write"}

func (k chargeKind) String() string { return kindNames[k] }

// moving reports whether the kind moves payload bytes (and so, in the
// simulator, may become a flow for the max-min solver).
func (k chargeKind) moving() bool { return k >= kindUnicast }

// tracedEnv wraps a cluster.Env: it forwards every call unchanged and
// counts each cost charge by kind and by the role of the node it is
// addressed to, optionally recording a span per charge. The peer of a
// charge is its destination for RTT, OneWay, Unicast, Scatter and
// Pipeline, its sources for Gather (the nodes serving the bytes), and
// the disk's node for DiskRead and DiskWrite.
type tracedEnv struct {
	inner cluster.Env
	roles map[cluster.NodeID]role // read-only after construction

	count [numRoles][numKinds]atomic.Int64
	bytes [numRoles][numKinds]atomic.Int64

	flows        atomic.Int64
	inflight     atomic.Int64
	peakInflight atomic.Int64

	spans *spanLog // nil: counters only
}

var _ cluster.Env = (*tracedEnv)(nil)

// flowCutoff is simnet's default small-transfer cutoff: moving charges
// larger than this are flows handed to the simulator's max-min solver.
const flowCutoff = 256 << 10

func newTracedEnv(inner cluster.Env, roles map[cluster.NodeID]role, spans *spanLog) *tracedEnv {
	return &tracedEnv{inner: inner, roles: roles, spans: spans}
}

func (e *tracedEnv) roleOf(n cluster.NodeID) role {
	if r, ok := e.roles[n]; ok {
		return r
	}
	return roleOther
}

// charge runs fn, the forwarded call, accounting it against peer.
// self is the node paying for the call (the op attribution key).
func (e *tracedEnv) charge(k chargeKind, self, peer cluster.NodeID, size int64, fn func()) {
	r := e.roleOf(peer)
	e.count[r][k].Add(1)
	e.bytes[r][k].Add(size)
	flow := k.moving() && size > flowCutoff
	if flow {
		e.flows.Add(1)
		n := e.inflight.Add(1)
		for {
			p := e.peakInflight.Load()
			if n <= p || e.peakInflight.CompareAndSwap(p, n) {
				break
			}
		}
	}
	if e.spans == nil {
		fn()
	} else {
		w0, v0 := wallNow(), e.inner.Now()
		fn()
		e.spans.charge(k, r, size, self, peer, w0, v0, e.inner.Now())
	}
	if flow {
		e.inflight.Add(-1)
	}
}

func (e *tracedEnv) Nodes() int                      { return e.inner.Nodes() }
func (e *tracedEnv) Rack(n cluster.NodeID) int       { return e.inner.Rack(n) }
func (e *tracedEnv) Now() time.Duration              { return e.inner.Now() }
func (e *tracedEnv) Go(fn func())                    { e.inner.Go(fn) }
func (e *tracedEnv) Daemon(fn func())                { e.inner.Daemon(fn) }
func (e *tracedEnv) NewWaitGroup() cluster.WaitGroup { return e.inner.NewWaitGroup() }
func (e *tracedEnv) NewSignal() cluster.Signal       { return e.inner.NewSignal() }
func (e *tracedEnv) Sleep(d time.Duration)           { e.inner.Sleep(d) }

func (e *tracedEnv) RTT(from, to cluster.NodeID) {
	e.charge(kindRTT, from, to, 0, func() { e.inner.RTT(from, to) })
}

func (e *tracedEnv) OneWay(from, to cluster.NodeID) {
	e.charge(kindOneWay, from, to, 0, func() { e.inner.OneWay(from, to) })
}

func (e *tracedEnv) Unicast(from, to cluster.NodeID, size int64) {
	e.charge(kindUnicast, from, to, size, func() { e.inner.Unicast(from, to, size) })
}

func (e *tracedEnv) Scatter(from cluster.NodeID, dests []cluster.NodeID, size int64) {
	e.charge(kindScatter, from, first(dests), size, func() { e.inner.Scatter(from, dests, size) })
}

func (e *tracedEnv) Gather(to cluster.NodeID, srcs []cluster.NodeID, size int64, diskFraction float64) {
	e.charge(kindGather, to, first(srcs), size, func() { e.inner.Gather(to, srcs, size, diskFraction) })
}

func (e *tracedEnv) Pipeline(from cluster.NodeID, chain []cluster.NodeID, size int64, disks bool) {
	e.charge(kindPipeline, from, first(chain), size, func() { e.inner.Pipeline(from, chain, size, disks) })
}

func (e *tracedEnv) DiskRead(node cluster.NodeID, size int64) {
	e.charge(kindDiskRead, node, node, size, func() { e.inner.DiskRead(node, size) })
}

func (e *tracedEnv) DiskWrite(node cluster.NodeID, size int64) {
	e.charge(kindDiskWrite, node, node, size, func() { e.inner.DiskWrite(node, size) })
}

// first returns the first node of a fan-out; every fan-out the
// services issue addresses nodes of a single role. An empty fan-out
// resolves to a node no role map names.
func first(nodes []cluster.NodeID) cluster.NodeID {
	if len(nodes) == 0 {
		return -1
	}
	return nodes[0]
}

// envCounts is a snapshot of a tracedEnv's counters.
type envCounts struct {
	count, bytes [numRoles][numKinds]int64
	flows        int64
}

func (e *tracedEnv) snapshot() envCounts {
	var c envCounts
	for r := range numRoles {
		for k := range numKinds {
			c.count[r][k] = e.count[r][k].Load()
			c.bytes[r][k] = e.bytes[r][k].Load()
		}
	}
	c.flows = e.flows.Load()
	return c
}

// sub returns the counts accrued since o.
func (c envCounts) sub(o envCounts) envCounts {
	for r := range numRoles {
		for k := range numKinds {
			c.count[r][k] -= o.count[r][k]
			c.bytes[r][k] -= o.bytes[r][k]
		}
	}
	c.flows -= o.flows
	return c
}

// ---------------------------------------------------------------------
// Spans.

// maxSpans caps the in-memory span log; later spans are counted as
// dropped, so a long run cannot grow the log without bound.
const maxSpans = 1 << 20

// spanRec is one recorded span: a client operation (Kind "op:<name>")
// or one Env charge made under it. Times are nanoseconds: Wall* from
// the trace's start, Env* on the environment's clock (virtual time in
// the simulator, elapsed wall time under Local). Op links a charge to
// the client operation in flight on its paying node; 0 means none or
// more than one was in flight there.
type spanRec struct {
	ID        uint64 `json:"id"`
	Op        uint64 `json:"op,omitempty"`
	Kind      string `json:"kind"`
	Role      string `json:"role,omitempty"`
	Node      int    `json:"node"`
	Peer      int    `json:"peer,omitempty"`
	Bytes     int64  `json:"bytes,omitempty"`
	WallStart int64  `json:"wall_start_ns"`
	WallEnd   int64  `json:"wall_end_ns"`
	EnvStart  int64  `json:"env_start_ns"`
	EnvEnd    int64  `json:"env_end_ns"`

	role role // Role as an index, for summaries
}

// spanLog keeps spans in memory until the run ends. Client operations
// register on the node that issues them; a charge paid by a node with
// exactly one operation in flight is linked to that operation.
type spanLog struct {
	t0 time.Time

	mu      sync.Mutex
	spans   []spanRec
	dropped int64
	nextID  uint64
	open    map[cluster.NodeID]map[uint64]int // node -> in-flight op id -> index in spans
}

func newSpanLog() *spanLog {
	return &spanLog{t0: wallNow(), open: make(map[cluster.NodeID]map[uint64]int)}
}

func (l *spanLog) addLocked(s spanRec) (uint64, int) {
	l.nextID++
	s.ID = l.nextID
	if len(l.spans) >= maxSpans {
		l.dropped++
		return s.ID, -1
	}
	l.spans = append(l.spans, s)
	return s.ID, len(l.spans) - 1
}

// beginOp opens a client-operation span on node and returns its id.
func (l *spanLog) beginOp(name string, node cluster.NodeID, envNow time.Duration) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	id, idx := l.addLocked(spanRec{Kind: "op:" + name, Node: int(node), WallStart: int64(since(l.t0)), EnvStart: int64(envNow)})
	if l.open[node] == nil {
		l.open[node] = make(map[uint64]int)
	}
	l.open[node][id] = idx
	return id
}

// endOp closes an operation span, recording the payload bytes it moved.
func (l *spanLog) endOp(id uint64, node cluster.NodeID, bytes int64, envNow time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	idx, ok := l.open[node][id]
	if !ok {
		return
	}
	delete(l.open[node], id)
	if idx >= 0 {
		s := &l.spans[idx]
		s.WallEnd, s.EnvEnd, s.Bytes = int64(since(l.t0)), int64(envNow), bytes
	}
}

func (l *spanLog) charge(k chargeKind, r role, size int64, self, peer cluster.NodeID, w0 time.Time, env0, env1 time.Duration) {
	wEnd := since(l.t0)
	l.mu.Lock()
	defer l.mu.Unlock()
	var op uint64
	if ops := l.open[self]; len(ops) == 1 {
		for id := range ops {
			op = id
		}
	}
	l.addLocked(spanRec{
		Op: op, Kind: k.String(), Role: r.String(), role: r, Node: int(self), Peer: int(peer), Bytes: size,
		WallStart: int64(w0.Sub(l.t0)), WallEnd: int64(wEnd), EnvStart: int64(env0), EnvEnd: int64(env1),
	})
}

// blocked sums, per role, the environment time charges spent blocked
// and how many of them were linked to an operation.
func (l *spanLog) blocked() (envTime [numRoles]time.Duration, linked, total int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, s := range l.spans {
		if strings.HasPrefix(s.Kind, "op:") {
			continue
		}
		total++
		if s.Op != 0 {
			linked++
		}
		envTime[s.role] += time.Duration(s.EnvEnd - s.EnvStart)
	}
	return envTime, linked, total
}

// writeTo writes the spans as JSON lines, then a trailer line with the
// dropped-span count.
func (l *spanLog) writeTo(w io.Writer) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	enc := json.NewEncoder(w)
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
	}
	return enc.Encode(map[string]int64{"spans": int64(len(l.spans)), "dropped": l.dropped})
}
