package main

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/cluster"
)

// recEnv is a cluster.Env that records which methods were called.
type recEnv struct{ calls map[string]int }

func (e *recEnv) hit(m string) { e.calls[m]++ }

func (e *recEnv) Nodes() int                                      { e.hit("Nodes"); return 9 }
func (e *recEnv) Rack(cluster.NodeID) int                         { e.hit("Rack"); return 0 }
func (e *recEnv) Now() time.Duration                              { e.hit("Now"); return 0 }
func (e *recEnv) Go(func())                                       { e.hit("Go") }
func (e *recEnv) Daemon(func())                                   { e.hit("Daemon") }
func (e *recEnv) NewWaitGroup() cluster.WaitGroup                 { e.hit("NewWaitGroup"); return nil }
func (e *recEnv) NewSignal() cluster.Signal                       { e.hit("NewSignal"); return nil }
func (e *recEnv) Sleep(time.Duration)                             { e.hit("Sleep") }
func (e *recEnv) RTT(_, _ cluster.NodeID)                         { e.hit("RTT") }
func (e *recEnv) OneWay(_, _ cluster.NodeID)                      { e.hit("OneWay") }
func (e *recEnv) Unicast(_, _ cluster.NodeID, _ int64)            { e.hit("Unicast") }
func (e *recEnv) Scatter(cluster.NodeID, []cluster.NodeID, int64) { e.hit("Scatter") }
func (e *recEnv) Gather(cluster.NodeID, []cluster.NodeID, int64, float64) {
	e.hit("Gather")
}
func (e *recEnv) Pipeline(cluster.NodeID, []cluster.NodeID, int64, bool) { e.hit("Pipeline") }
func (e *recEnv) DiskRead(cluster.NodeID, int64)                         { e.hit("DiskRead") }
func (e *recEnv) DiskWrite(cluster.NodeID, int64)                        { e.hit("DiskWrite") }

// TestTracedEnvForwardsEveryMethod calls every cluster.Env method on
// the wrapper, with zero arguments, and checks each reached the inner
// Env exactly once. (With spans on, each charge also reads the inner
// clock, so Now is checked first, before any charge.)
func TestTracedEnvForwardsEveryMethod(t *testing.T) {
	for _, spans := range []*spanLog{nil, newSpanLog()} {
		inner := &recEnv{calls: make(map[string]int)}
		env := newTracedEnv(inner, wireRoles(), spans)
		it := reflect.TypeOf((*cluster.Env)(nil)).Elem()
		v := reflect.ValueOf(env)
		methods := []reflect.Method{}
		for i := range it.NumMethod() {
			if m := it.Method(i); m.Name == "Now" {
				methods = append([]reflect.Method{m}, methods...)
			} else {
				methods = append(methods, m)
			}
		}
		for _, m := range methods {
			ft := m.Type
			args := make([]reflect.Value, ft.NumIn())
			for j := range args {
				args[j] = reflect.Zero(ft.In(j))
			}
			v.MethodByName(m.Name).Call(args)
			if got := inner.calls[m.Name]; got != 1 {
				t.Errorf("spans=%v: %s reached the inner Env %d times, want 1", spans != nil, m.Name, got)
			}
		}
	}
}

func TestTracedEnvClassifiesPeerRole(t *testing.T) {
	inner := &recEnv{calls: make(map[string]int)}
	env := newTracedEnv(inner, wireRoles(), nil)
	prov := []cluster.NodeID{firstProvider, firstProvider + 1}

	env.RTT(nodeClient, nodeVM)
	env.RTT(nodeClient, nodeVM)
	env.RTT(nodeClient, nodeNamespace)
	env.OneWay(nodeClient, nodePlacement)
	env.Unicast(nodeClient, nodeDHT, 10)
	env.Scatter(nodeClient, prov, 1<<20)
	env.Scatter(nodeClient, []cluster.NodeID{nodeDHT}, 300)
	env.Gather(nodeClient, prov, 2<<20, 0.5)
	env.Gather(nodeClient, []cluster.NodeID{nodeDHT}, 40, 0)
	env.Pipeline(nodeClient, prov, 7, true)
	env.DiskRead(firstProvider, 11)
	env.DiskWrite(firstProvider+2, 13)
	env.Scatter(nodeClient, nil, 5) // an empty fan-out has no role

	c := env.snapshot()
	for _, tc := range []struct {
		r            role
		k            chargeKind
		calls, bytes int64
	}{
		{roleVM, kindRTT, 2, 0},
		{roleNamespace, kindRTT, 1, 0},
		{rolePlacement, kindOneWay, 1, 0},
		{roleDHT, kindUnicast, 1, 10},
		{roleProvider, kindScatter, 1, 1 << 20},
		{roleDHT, kindScatter, 1, 300},
		{roleProvider, kindGather, 1, 2 << 20},
		{roleDHT, kindGather, 1, 40},
		{roleProvider, kindPipeline, 1, 7},
		{roleProvider, kindDiskRead, 1, 11},
		{roleProvider, kindDiskWrite, 1, 13},
		{roleOther, kindScatter, 1, 5},
		{roleClient, kindRTT, 0, 0},
	} {
		if c.count[tc.r][tc.k] != tc.calls || c.bytes[tc.r][tc.k] != tc.bytes {
			t.Errorf("%s/%s: %d calls, %d bytes; want %d, %d", tc.r, tc.k, c.count[tc.r][tc.k], c.bytes[tc.r][tc.k], tc.calls, tc.bytes)
		}
	}
	// Only the two moving charges above the cutoff are solver flows.
	if c.flows != 2 {
		t.Errorf("flows = %d, want 2", c.flows)
	}
	if p := env.peakInflight.Load(); p != 1 {
		t.Errorf("peak in flight = %d, want 1 (calls were sequential)", p)
	}
	if d := env.snapshot().sub(c); d.count[roleVM][kindRTT] != 0 || d.flows != 0 {
		t.Errorf("snapshot difference with no new charges: %+v", d)
	}
}

func TestSpansLinkChargesToTheSoleOpOnTheirNode(t *testing.T) {
	spans := newSpanLog()
	env := newTracedEnv(&recEnv{calls: make(map[string]int)}, wireRoles(), spans)
	a := spans.beginOp("append", nodeClient, 0)
	env.RTT(nodeClient, nodeVM) // linked to a
	b := spans.beginOp("read", nodeClient, 0)
	env.RTT(nodeClient, nodeVM) // two ops in flight: unlinked
	spans.endOp(a, nodeClient, 4096, 0)
	env.Gather(nodeClient, []cluster.NodeID{firstProvider}, 64, 0) // linked to b
	spans.endOp(b, nodeClient, 64, 0)

	var charges []spanRec
	for _, s := range spans.spans {
		if s.Kind == "rtt" || s.Kind == "gather" {
			charges = append(charges, s)
		}
	}
	if len(charges) != 3 || charges[0].Op != a || charges[1].Op != 0 || charges[2].Op != b {
		t.Fatalf("charge links = %+v, want ops %d, 0, %d", charges, a, b)
	}
	if charges[0].Role != "vm" || charges[2].Role != "provider" {
		t.Errorf("roles = %q, %q", charges[0].Role, charges[2].Role)
	}
	_, linked, total := spans.blocked()
	if linked != 2 || total != 3 {
		t.Errorf("linked %d of %d charges, want 2 of 3", linked, total)
	}
}
