// Package campaign is the concurrent campaign engine: the single entry
// point for executing one or many protein-design campaigns.
//
// The coordinator (internal/core) drives one campaign over its pilots;
// this package owns everything above it — which campaigns exist (the
// scenario registry), how many run at once (a bounded worker pool), and
// the separation of application logic from execution policy that the
// policy-free-middleware literature argues for: a Campaign says *what* to
// run (targets + protocol config), the Engine decides *how* (worker
// count, pilot placement), and swapping one never touches the other.
//
// Every campaign is hermetic: all of its randomness derives from its
// config seed via xrand substreams, and the shared inputs (targets and
// their landscape models) are immutable after construction. Running N
// campaigns on W workers therefore yields bit-identical Results to
// running them one at a time — concurrency changes wall-clock time only.
package campaign

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"impress/internal/core"
	"impress/internal/tenancy"
	"impress/internal/workload"
)

// Campaign declares one unit of work for the engine: a named protocol
// run over a set of targets. Campaigns are data — new workloads are new
// Campaign values (usually from a Scenario), not new drivers.
type Campaign struct {
	// Name identifies the campaign in outcomes and logs.
	Name string
	// Seed records the campaign's root seed for reporting; the operative
	// seed lives in Config.Seed.
	Seed uint64
	// Targets is the design workload.
	Targets []*workload.Target
	// Config is the full campaign configuration (protocol, machine or
	// pilot set, sub-pipeline policy).
	Config core.Config
	// Tenancy, when set, runs this campaign as a multi-tenant service —
	// the spec's arriving tenant campaigns contend for one shared
	// cluster under admission control — instead of a single coordinator.
	// Targets and Config are ignored; the Outcome's Result is
	// the aggregate service record (per-tenant stats in Result.Tenants).
	Tenancy *tenancy.Spec
}

// Outcome is one campaign's result or failure.
type Outcome struct {
	// Name and Seed echo the campaign.
	Name string
	Seed uint64
	// Result is the completed campaign record (nil on error).
	Result *core.Result
	// Err is the campaign's failure, if any. One failed campaign never
	// aborts the rest of a batch.
	Err error
}

// Engine executes campaigns on a bounded worker pool.
type Engine struct {
	workers int
}

// NewEngine creates an engine with the given concurrency; workers <= 0
// uses GOMAXPROCS.
func NewEngine(workers int) *Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Engine{workers: workers}
}

// WorkersFor returns the worker count Run actually uses for n jobs: the
// configured bound, never exceeding n.
func (e *Engine) WorkersFor(n int) int {
	w := e.workers
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Run executes every campaign and returns outcomes in input order.
// Campaigns are independent and hermetically seeded, so the outcomes are
// bit-identical regardless of worker count; failures are reported
// per-campaign and never discard completed work.
func (e *Engine) Run(campaigns []Campaign) []Outcome {
	outcomes := make([]Outcome, len(campaigns))
	runIndexed(len(campaigns), e.workers, func(i int) {
		outcomes[i] = runOne(campaigns[i])
	})
	return outcomes
}

// runIndexed executes fn(i) for every i in [0, n) on a bounded pool of
// goroutines (workers <= 0 uses GOMAXPROCS; the pool never exceeds n)
// and returns once every call has completed; fn is responsible for its
// own panic safety.
func runIndexed(n, workers int, fn func(int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
}

// activeCampaigns counts campaigns currently executing anywhere in the
// process, across every engine and nested worker pool.
var activeCampaigns atomic.Int64

// mpnnShare divides the machine between concurrent campaigns: the MPNN
// sampler defaults to GOMAXPROCS goroutines per Stage-1 task, which is
// right for a lone campaign but oversubscribes every core when several
// campaigns run at once — including via nested pools (a caller running
// engines of its own). Each campaign gets a share proportional to the
// live campaign count, floored at 1; 0 (a lone campaign) keeps the
// default. Designs are computed into per-candidate slots from
// per-candidate seeds, so sampler parallelism never changes results —
// this is pure execution policy.
func mpnnShare(active int) int {
	if active <= 1 {
		return 0
	}
	return max(runtime.GOMAXPROCS(0)/active, 1)
}

// withParallelism gives cfg the MPNN share unless it sets an explicit
// sampler parallelism.
func withParallelism(cfg core.Config, share int) core.Config {
	if cfg.Pipeline.MPNN.Parallelism == 0 {
		cfg.Pipeline.MPNN.Parallelism = share
	}
	return cfg
}

// runOne executes a single campaign to completion, converting panics from
// configuration mistakes deep in the stack into per-campaign errors so a
// batch survives one bad cell.
func runOne(c Campaign) (out Outcome) {
	out = Outcome{Name: c.Name, Seed: c.Seed}
	active := activeCampaigns.Add(1)
	defer activeCampaigns.Add(-1)
	defer func() {
		if r := recover(); r != nil {
			out.Result = nil
			out.Err = fmt.Errorf("campaign %s panicked: %v", c.Name, r)
		}
	}()
	share := mpnnShare(int(active))
	c.Config = withParallelism(c.Config, share)
	if c.Tenancy != nil {
		// Every tenant of a service campaign gets the campaign's share.
		spec := *c.Tenancy
		spec.Tenants = append([]tenancy.TenantSpec(nil), spec.Tenants...)
		for i := range spec.Tenants {
			spec.Tenants[i].Config = withParallelism(spec.Tenants[i].Config, share)
		}
		svc, err := tenancy.NewService(spec)
		if err != nil {
			out.Err = fmt.Errorf("campaign %s: %w", c.Name, err)
			return out
		}
		res, err := svc.Run()
		if err != nil {
			out.Err = fmt.Errorf("campaign %s: %w", c.Name, err)
			return out
		}
		out.Result = res
		return out
	}
	coord, err := core.NewCoordinator(c.Targets, c.Config)
	if err != nil {
		out.Err = fmt.Errorf("campaign %s: %w", c.Name, err)
		return out
	}
	res, err := coord.Run()
	if err != nil {
		out.Err = fmt.Errorf("campaign %s: %w", c.Name, err)
		return out
	}
	out.Result = res
	return out
}

// Run is the convenience entry point: execute campaigns with the given
// worker count and return outcomes in input order.
func Run(campaigns []Campaign, workers int) []Outcome {
	return NewEngine(workers).Run(campaigns)
}
