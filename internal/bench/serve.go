// serve.go runs the heavy-traffic serving scenario (X8): an open-loop
// multi-tenant load generator (internal/traffic) drives a BSFS core
// deployment at 1x/5x/10x of its design load with per-tenant
// token-bucket admission on and off. The measured quantities are the
// open-loop latency distribution (p50/p90/p99, arrival to completion —
// downstream queueing included) and goodput (completions within an SLO
// per second of offered window).
//
// The version manager's modeled per-RPC occupancy (VMServiceTime) is
// the deliberate bottleneck: past saturation an open-loop arrival
// process grows the queue without bound, so without admission the 10x
// point shows collapsing SLO goodput and an exploding tail. With
// admission, over-rate arrivals are rejected at op entry with
// ErrOverloaded — before any version ticket exists — so the admitted
// work keeps completing within the SLO and goodput degrades gracefully
// instead of collapsing. That comparison is the X8 assertion.
package bench

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/traffic"
)

// ServeOpts parameterizes one heavy-traffic serving run.
type ServeOpts struct {
	// Tenants is the simulated tenant population (default 1000).
	Tenants int
	// BaseRate is the 1x aggregate offered load in ops/sec (default
	// 400 — comfortably inside the modeled version-manager capacity, so
	// 5x approaches saturation and 10x is past it).
	BaseRate float64
	// Multiple scales the offered load: Rate = Multiple * BaseRate
	// (default 1).
	Multiple float64
	// Duration is the offered window of virtual time (default 6s —
	// long enough for an unadmitted overload's queueing delay to blow
	// through the SLO); in-flight work is always drained past it.
	Duration time.Duration
	// Admission enables per-tenant token-bucket admission at op entry.
	Admission bool
	// VMServiceTime is the modeled per-RPC occupancy of the version
	// manager — the serving bottleneck (default 200µs).
	VMServiceTime time.Duration
	// Nodes sizes the simulated cluster (default 12).
	Nodes int
}

// The fixed shape of every serving run.
const (
	// serveAdmitHeadroom scales the per-tenant admitted rate over the
	// fair share: rate = serveAdmitHeadroom * BaseRate / Tenants —
	// above the 1x fair share, still safely inside the modeled serving
	// capacity, so admitted work never saturates the bottleneck.
	serveAdmitHeadroom = 2.5
	// serveReadFraction / serveSharedFraction shape the op mix: reads
	// vs appends, shared blob vs the tenant's private blob.
	serveReadFraction   = 0.5
	serveSharedFraction = 0.5
	// serveSLO is the completion-latency bound defining goodput.
	serveSLO = 250 * time.Millisecond
	// serveBlockSize sizes each synthetic append and read.
	serveBlockSize = 64 * KB
	// serveSeed drives the arrival schedule.
	serveSeed = 1
)

func (o *ServeOpts) fillDefaults() {
	if o.Tenants <= 0 {
		o.Tenants = 1000
	}
	if o.BaseRate <= 0 {
		o.BaseRate = 400
	}
	if o.Multiple <= 0 {
		o.Multiple = 1
	}
	if o.Duration <= 0 {
		o.Duration = 6 * time.Second
	}
	if o.VMServiceTime <= 0 {
		o.VMServiceTime = 200 * time.Microsecond
	}
	if o.Nodes <= 0 {
		o.Nodes = 12
	}
}

// ServeResult is the outcome of one serving run.
type ServeResult struct {
	// Point summarizes the run for tables and the JSON schema: Clients
	// is the tenant population, Duration the makespan (offered window
	// plus drain), P50/P90/P99 the open-loop latency quantiles.
	Point Point
	// Report is the raw generator report (offered/completed/rejected/
	// failed counts, in-flight high-water mark, latency samples).
	Report *traffic.Report
	// GoodputPerSec is SLO-compliant completions per second of offered
	// window.
	GoodputPerSec float64
	// AdmittedStats snapshots the per-tenant admission counters (empty
	// without admission).
	AdmittedStats []traffic.TenantStats
}

// RunServe is one X8 point: an open-loop Poisson arrival process over
// Tenants tenants offers Multiple * BaseRate ops/sec of mixed
// appends/reads against one shared blob and per-tenant private blobs,
// with or without token-bucket admission. The run fails if any
// operation errors for a reason other than admission rejection, or if
// the publication frontier is left wedged after the drain.
func RunServe(opts ServeOpts) (ServeResult, error) {
	opts.fillDefaults()
	eng := sim.NewEngine()
	net := simnet.New(eng, simnet.Grid5000(opts.Nodes))
	env := cluster.NewSim(net)
	provs := make([]cluster.NodeID, opts.Nodes-1)
	for i := range provs {
		provs[i] = cluster.NodeID(i + 1)
	}
	coreOpts := core.Options{
		PageSize:      64 * KB,
		ProviderNodes: provs,
		VMServiceTime: opts.VMServiceTime,
	}
	if opts.Admission {
		coreOpts.TenantRate = serveAdmitHeadroom * opts.BaseRate / float64(opts.Tenants)
		coreOpts.TenantBurst = 2
	}
	d, err := core.NewDeployment(env, coreOpts)
	if err != nil {
		return ServeResult{}, err
	}
	var (
		rep      *traffic.Report
		makespan time.Duration
		runErr   error
	)
	eng.Go(func() {
		// Setup (unmeasured, untenanted): the shared blob plus one
		// private blob per tenant, each seeded with one synthetic block
		// so reads have a snapshot to address.
		c0 := d.NewClient(0)
		seed := func(c *core.Client) (*core.Blob, error) {
			b, err := c.CreateBlob(0)
			if err != nil {
				return nil, err
			}
			if _, err := b.WriteAt(nil, 0, core.Synthetic(serveBlockSize)); err != nil {
				return nil, err
			}
			return b, nil
		}
		shared, err := seed(c0)
		if err != nil {
			runErr = err
			return
		}
		// Tenants dispatch through per-node clients (round-robin over
		// the provider nodes), sharing cached metadata per node.
		clients := make([]*core.Client, len(provs))
		sharedH := make([]*core.Blob, len(provs))
		for i, n := range provs {
			clients[i] = d.NewClient(n)
			bh, err := clients[i].OpenBlob(shared.ID())
			if err != nil {
				runErr = err
				return
			}
			sharedH[i] = bh
		}
		private := make([]*core.Blob, opts.Tenants)
		for t := range private {
			bh, err := seed(clients[t%len(clients)])
			if err != nil {
				runErr = err
				return
			}
			private[t] = bh
		}

		start := env.Now()
		rep = traffic.Run(env, traffic.GenConfig{
			Tenants:        opts.Tenants,
			Rate:           opts.Multiple * opts.BaseRate,
			Duration:       opts.Duration,
			ReadFraction:   serveReadFraction,
			SharedFraction: serveSharedFraction,
			Seed:           serveSeed,
		}, func(op traffic.Op) error {
			bh := private[op.TenantIndex]
			if op.Shared {
				bh = sharedH[op.TenantIndex%len(sharedH)]
			}
			if op.Kind == traffic.OpRead {
				_, err := bh.ReadAt(nil, 0, core.Synthetic(serveBlockSize), core.WithTenant(op.Tenant))
				return err
			}
			_, _, err := bh.Append(core.SyntheticBlocks(serveBlockSize), core.WithTenant(op.Tenant))
			return err
		})
		makespan = env.Now() - start

		// Frontier check: every rejected op must have left no ticket
		// behind, so after the drain the shared blob's newest record is
		// published (or aborted) — Latest never hangs and the awaited
		// frontier equals the record count.
		recs, err := shared.History()
		if err != nil {
			runErr = err
			return
		}
		if len(recs) > 0 {
			if err := shared.AwaitPublished(recs[len(recs)-1].Version); err != nil {
				runErr = fmt.Errorf("bench: x8 frontier wedged: %w", err)
				return
			}
		}
	})
	if err := eng.Run(); err != nil && runErr == nil {
		runErr = err
	}
	if runErr == nil && rep != nil && rep.FirstErr != nil {
		runErr = fmt.Errorf("bench: x8 op failed: %w", rep.FirstErr)
	}
	if rep == nil {
		rep = &traffic.Report{}
	}
	mode := "open"
	if opts.Admission {
		mode = "admit"
	}
	res := ServeResult{
		Report: rep,
		Point: Point{
			Experiment: fmt.Sprintf("X8-%.0fx-%s", opts.Multiple, mode),
			Kind:       "bsfs",
			Clients:    opts.Tenants,
			Duration:   makespan,
			P50:        rep.P50,
			P90:        rep.P90,
			P99:        rep.P99,
		},
		GoodputPerSec: rep.Goodput(opts.Duration, serveSLO),
	}
	if lim := d.Admission; lim != nil {
		res.AdmittedStats = lim.Stats()
	}
	return res, runErr
}

// RunServeSweep runs the full X8 grid — every load multiple with
// admission off and on — and asserts graceful degradation: at the
// highest multiple, admission must deliver at least the SLO goodput of
// the open (unadmitted) run, and the admitted tail must stay within
// the SLO.
func RunServeSweep(opts ServeOpts, multiples []float64) (open, admitted []ServeResult, err error) {
	if len(multiples) == 0 {
		multiples = []float64{1, 5, 10}
	}
	for _, m := range multiples {
		o := opts
		o.Multiple = m
		o.Admission = false
		ro, err := RunServe(o)
		if err != nil {
			return open, admitted, fmt.Errorf("bench: x8 %gx open: %w", m, err)
		}
		open = append(open, ro)
		a := opts
		a.Multiple = m
		a.Admission = true
		ra, err := RunServe(a)
		if err != nil {
			return open, admitted, fmt.Errorf("bench: x8 %gx admitted: %w", m, err)
		}
		admitted = append(admitted, ra)
	}
	last := len(multiples) - 1
	if admitted[last].GoodputPerSec < open[last].GoodputPerSec {
		err = fmt.Errorf("bench: x8 admission lost goodput at %gx: %.1f < %.1f ops/s",
			multiples[last], admitted[last].GoodputPerSec, open[last].GoodputPerSec)
	} else if admitted[last].Report.P99 > serveSLO {
		err = fmt.Errorf("bench: x8 admitted p99 %s exceeds SLO %s at %gx",
			admitted[last].Report.P99, serveSLO, multiples[last])
	}
	return open, admitted, err
}
