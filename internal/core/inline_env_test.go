package core

import (
	"sync"

	"repro/internal/cluster"
)

// inlineEnv is a Local env whose WaitGroups run every Go in the
// caller: the client's provider fan-outs visit one provider at a time
// in the calling goroutine. Allocation measurements through it see the
// data path's own allocations, not goroutine spawns and scheduling.
type inlineEnv struct{ *cluster.Local }

func newInlineEnv(n, rackSize int) inlineEnv { return inlineEnv{cluster.NewLocal(n, rackSize)} }

func (inlineEnv) NewWaitGroup() cluster.WaitGroup { return &inlineWG{} }

// inlineWG tracks Add/Done like a sync.WaitGroup; Go runs fn to
// completion before returning.
type inlineWG struct{ wg sync.WaitGroup }

func (w *inlineWG) Add(d int)    { w.wg.Add(d) }
func (w *inlineWG) Done()        { w.wg.Done() }
func (w *inlineWG) Wait()        { w.wg.Wait() }
func (w *inlineWG) Go(fn func()) { fn() }
