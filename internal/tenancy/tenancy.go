// Package tenancy is the multi-tenant campaign service: many campaigns
// sharing one cluster. It is the layer the single-campaign stack slots
// into — a Service owns the machine's node pool, an owner table that
// leases whole nodes to tenants, and one discrete-event engine, admits a
// deterministic seed-driven stream of arriving campaigns (tenants), and
// runs each admitted tenant's core.Coordinator against its leased nodes
// via StartOn/Finish instead of a private engine.
//
// Three policy layers compose here, each behind its own registry:
//
//   - arrival (internal/fleet): when tenants show up — instant, linear,
//     exponential, wave;
//   - admission (this package): who gets in and with how many nodes —
//     fcfs-admit, quota, weighted-fair;
//   - inter-campaign steering (internal/steer): whole-node quota
//     reclaim between running tenants — none, fairshare — reusing the
//     checkpoint/evict/resume drain path so reclaimed nodes carry no
//     lost work beyond the last checkpoint.
//
// Everything is deterministic: arrivals and workloads derive from seeds,
// all simulation-time decisions run on the single engine goroutine, and
// worker parallelism touches only pre-simulation target construction —
// the same service replays bit-identically across runs and worker
// counts.
package tenancy

import (
	"fmt"
	"sort"
	"time"

	"impress/internal/cluster"
	"impress/internal/core"
	"impress/internal/fleet"
	"impress/internal/ga"
	"impress/internal/landscape"
	"impress/internal/pilot"
	"impress/internal/protein"
	"impress/internal/simclock"
	"impress/internal/steer"
	"impress/internal/workload"
	"impress/internal/xrand"
)

// TenantSpec declares one arriving campaign.
type TenantSpec struct {
	// Name identifies the tenant in leases, reports, and stats.
	Name string
	// Seed drives the tenant's workload construction (mined-screen
	// targets) when Targets is nil.
	Seed uint64
	// Weight is the tenant's share weight under weighted-fair admission
	// (0 counts as 1).
	Weight float64
	// Nodes is the tenant's node demand — the grant it asks admission
	// control for.
	Nodes int
	// TargetCount sizes the mined-screen workload built from Seed when
	// Targets is nil.
	TargetCount int
	// Targets, when set, is the tenant's exact workload (the golden
	// single-tenant proof passes the pair campaign's targets through
	// unchanged).
	Targets []*workload.Target
	// Config is the tenant's campaign protocol. Machine and Pilots are
	// overwritten by the service with the leased capacity; everything
	// else (pipeline, sub-policy, scheduling, checkpoint cadence) is the
	// tenant's own.
	Config core.Config
}

// Config shapes one multi-tenant service run.
type Config struct {
	// Machine is the shared pool's nominal cluster spec.
	Machine cluster.Spec
	// Nodes optionally pins per-node capacities (a generated fleet);
	// nil expands Machine's uniform shape.
	Nodes []cluster.NodeCapacity
	// Seed drives the arrival process.
	Seed uint64
	// Arrival is the fleet arrival-process kind (default instant).
	Arrival string
	// Span is the arrival window (ignored for instant).
	Span time.Duration
	// Admission names the admission-control policy (default fcfs-admit).
	Admission string
	// Quota is the per-tenant node cap for the quota policy; ≤ 0
	// derives total/4.
	Quota int
	// Reclaim names the inter-campaign steering policy (default none).
	Reclaim string
	// ReclaimPeriod is the reclaim observation cadence (default
	// steer.DefaultPeriod).
	ReclaimPeriod time.Duration
	// Workers bounds the worker pool that pre-builds tenant workloads;
	// ≤ 1 builds serially. Changing it never changes results.
	Workers int
}

// Spec bundles a service configuration with its tenant stream — the
// declarative "campaign of campaigns" a scenario builds.
type Spec struct {
	Config  Config
	Tenants []TenantSpec
}

// tenantState tracks one tenant through the service lifecycle.
type tenantState int

const (
	tenantWaiting tenantState = iota
	tenantRunning
	tenantDone
)

// tenant is the service-side record of one arriving campaign.
type tenant struct {
	idx      int
	spec     TenantSpec
	targets  []*workload.Target
	buildErr error

	coord *core.Coordinator
	pilot *pilot.Pilot

	state     tenantState
	here      bool // arrival event fired (distinguishes "arrived at t=0" from "not yet")
	arrived   simclock.Time
	admitted  simclock.Time
	finished  simclock.Time
	granted   int
	reclaimed int
	regranted int
	held      int // pool nodes the tenant owns

	// pilotToPool maps the tenant's private node IDs to the shared
	// pool's node IDs, so a shrink/evict on the tenant ledger releases
	// or transfers the right lease.
	pilotToPool map[int]int

	result *core.Result
	err    error
}

func (t *tenant) name() string { return t.spec.Name }

// pool is the machine's owner table: each node's capacity and the tenant
// that leases it (nil while free). Tenants lease whole nodes and run
// their private schedulers on them. Only the engine goroutine touches
// the table, and a shortfall or a wrong owner is a bug in the Service,
// so both panic.
type pool struct {
	caps        []cluster.NodeCapacity
	owner       []*tenant
	free        int
	cores, gpus int
}

// newPool validates the machine, and caps when given, as a cluster does.
func newPool(spec cluster.Spec, caps []cluster.NodeCapacity) (*pool, error) {
	var (
		c   *cluster.Cluster
		err error
	)
	if caps == nil {
		c, err = cluster.New(spec)
	} else {
		c, err = cluster.NewWithNodes(spec, caps)
	}
	if err != nil {
		return nil, err
	}
	p := &pool{owner: make([]*tenant, c.NodeCount()), free: c.NodeCount(), cores: c.CapCores(), gpus: c.CapGPUs()}
	for id := range p.owner {
		p.caps = append(p.caps, c.NodeCap(id))
	}
	return p, nil
}

// lease gives t the n lowest-numbered free nodes and returns their IDs.
func (p *pool) lease(t *tenant, n int) []int {
	if n > p.free {
		panic(fmt.Sprintf("tenancy: tenant %s wants %d nodes, only %d free", t.name(), n, p.free))
	}
	ids := make([]int, 0, n)
	for id := 0; len(ids) < n; id++ {
		if p.owner[id] == nil {
			p.owner[id] = t
			ids = append(ids, id)
		}
	}
	p.free -= n
	t.held += n
	return ids
}

// give hands node id from its owner to another tenant, or back to the
// free pool when to is nil.
func (p *pool) give(from, to *tenant, id int) {
	if p.owner[id] != from {
		panic(fmt.Sprintf("tenancy: node %d is not leased to %s", id, from.name()))
	}
	p.owner[id] = to
	from.held--
	if to == nil {
		p.free++
	} else {
		to.held++
	}
}

// release returns node id from t to the free pool.
func (p *pool) release(t *tenant, id int) { p.give(t, nil, id) }

// releaseAll returns every node t owns to the free pool.
func (p *pool) releaseAll(t *tenant) {
	for id, o := range p.owner {
		if o == t {
			p.release(t, id)
		}
	}
}

// Service runs many campaigns against one shared cluster.
type Service struct {
	cfg     Config
	pool    *pool
	engine  *simclock.Engine
	admit   Policy
	reclaim steer.TenantPolicy
	tenants []*tenant

	remaining int
	ticker    *simclock.Ticker
	ran       bool
}

// NewService validates the spec and prepares a service run.
func NewService(spec Spec) (*Service, error) {
	cfg := spec.Config
	if len(spec.Tenants) == 0 {
		return nil, fmt.Errorf("tenancy: no tenants")
	}
	if cfg.Arrival == "" {
		cfg.Arrival = fleet.ArrivalInstant
	}
	if err := fleet.ValidateArrival(cfg.Arrival); err != nil {
		return nil, err
	}
	if err := Validate(cfg.Admission); err != nil {
		return nil, err
	}
	if err := steer.ValidateTenant(cfg.Reclaim); err != nil {
		return nil, err
	}
	if cfg.ReclaimPeriod < 0 {
		return nil, fmt.Errorf("tenancy: negative reclaim period %v", cfg.ReclaimPeriod)
	}
	if cfg.ReclaimPeriod == 0 {
		cfg.ReclaimPeriod = steer.DefaultPeriod
	}
	pool, err := newPool(cfg.Machine, cfg.Nodes)
	if err != nil {
		return nil, err
	}
	total := len(pool.owner)
	if cfg.Quota <= 0 {
		cfg.Quota = total / 4
		if cfg.Quota < 1 {
			cfg.Quota = 1
		}
	}
	admit, err := New(cfg.Admission, cfg.Quota)
	if err != nil {
		return nil, err
	}
	reclaim, err := steer.NewTenant(cfg.Reclaim)
	if err != nil {
		return nil, err
	}
	s := &Service{cfg: cfg, pool: pool, admit: admit, reclaim: reclaim}
	seen := make(map[string]bool, len(spec.Tenants))
	for i, ts := range spec.Tenants {
		if ts.Name == "" {
			return nil, fmt.Errorf("tenancy: tenant %d has no name", i)
		}
		if seen[ts.Name] {
			return nil, fmt.Errorf("tenancy: duplicate tenant %q", ts.Name)
		}
		seen[ts.Name] = true
		if ts.Nodes <= 0 {
			return nil, fmt.Errorf("tenancy: tenant %q demands %d nodes", ts.Name, ts.Nodes)
		}
		if ts.Nodes > total {
			return nil, fmt.Errorf("tenancy: tenant %q demands %d nodes, pool has %d — it could never be admitted", ts.Name, ts.Nodes, total)
		}
		if ts.Targets == nil && ts.TargetCount <= 0 {
			return nil, fmt.Errorf("tenancy: tenant %q has neither targets nor a target count", ts.Name)
		}
		s.tenants = append(s.tenants, &tenant{idx: i, spec: ts, pilotToPool: make(map[int]int)})
	}
	s.remaining = len(s.tenants)
	return s, nil
}

// Run executes the whole tenant stream to completion in virtual time and
// returns the aggregate service result (per-tenant records in
// Result.Tenants). It can be called once.
func (s *Service) Run() (*core.Result, error) {
	if s.ran {
		return nil, fmt.Errorf("tenancy: Run called twice")
	}
	s.ran = true

	// Pre-build every tenant's workload on a bounded worker pool. This
	// is the only parallel phase: each build depends solely on the
	// tenant's own seed, so worker count never changes results.
	runIndexed(len(s.tenants), s.cfg.Workers, func(i int) {
		t := s.tenants[i]
		defer func() {
			if r := recover(); r != nil {
				t.buildErr = fmt.Errorf("tenancy: tenant %s workload build panicked: %v", t.name(), r)
			}
		}()
		if t.spec.Targets != nil {
			t.targets = t.spec.Targets
			return
		}
		targets, err := workload.MinedScreen(xrand.Derive(t.spec.Seed, "tenant:"+t.name()), t.spec.TargetCount, workload.DefaultConfig())
		if err != nil {
			t.buildErr = err
			return
		}
		t.targets = targets
	})
	for _, t := range s.tenants {
		if t.buildErr != nil {
			return nil, t.buildErr
		}
	}

	arrivals, err := fleet.Arrivals(s.cfg.Arrival, len(s.tenants), s.cfg.Span, s.cfg.Seed)
	if err != nil {
		return nil, err
	}
	s.engine = simclock.New()
	for i, at := range arrivals {
		t := s.tenants[i]
		s.engine.At(simclock.Time(at), func() {
			t.here = true
			t.arrived = s.engine.Now()
			// Deferred so that same-instant arrivals (instant/wave
			// processes) all land before the first admission decision —
			// a share policy must see the whole batch, not a prefix.
			s.engine.Defer(s.admissionPass)
		})
	}
	if steer.TenantEnabled(s.cfg.Reclaim) {
		s.ticker = s.engine.Every(s.cfg.ReclaimPeriod, func(simclock.Time) { s.reclaimTick() })
	}

	s.engine.Run()

	if s.ticker != nil {
		s.ticker.Stop()
		s.ticker = nil
	}
	for _, t := range s.tenants {
		if t.err != nil {
			return nil, fmt.Errorf("tenancy: tenant %s: %w", t.name(), t.err)
		}
	}
	if s.remaining > 0 {
		var stuck []string
		for _, t := range s.tenants {
			if t.state != tenantDone {
				stuck = append(stuck, t.name())
			}
		}
		return nil, fmt.Errorf("tenancy: engine drained with %d tenants unfinished (%v) — admission deadlock", len(stuck), stuck)
	}
	for _, t := range s.tenants {
		res, err := t.coord.Finish(t.finished)
		if err != nil {
			return nil, fmt.Errorf("tenancy: tenant %s: %w", t.name(), err)
		}
		t.result = res
	}
	return s.aggregate(), nil
}

// TenantResults returns the per-tenant campaign results in tenant order.
// Valid after Run.
func (s *Service) TenantResults() []*core.Result {
	out := make([]*core.Result, len(s.tenants))
	for i, t := range s.tenants {
		out[i] = t.result
	}
	return out
}

// views builds the admission snapshot: every arrived, unfinished tenant
// in arrival order. Arrival offsets are sorted by construction and
// same-instant events fire in insertion order, so arrival order is
// tenant-index order.
func (s *Service) views() ([]View, []*tenant) {
	var vs []View
	var ts []*tenant
	for _, t := range s.tenants {
		if t.state == tenantDone || !t.here {
			continue
		}
		vs = append(vs, View{
			Name:    t.name(),
			Weight:  t.spec.Weight,
			Demand:  t.spec.Nodes,
			Nodes:   t.held,
			Waiting: t.state == tenantWaiting,
			Arrived: t.arrived.Duration(),
		})
		ts = append(ts, t)
	}
	return vs, ts
}

// admissionPass asks the admission policy for grants and starts every
// admitted tenant on the shared engine. Runs at each arrival and each
// completion — the two instants where free capacity or waiting demand
// changes outside the reclaim tick.
func (s *Service) admissionPass() {
	vs, ts := s.views()
	if len(vs) == 0 {
		return
	}
	grants := s.admit.Admit(vs, s.pool.free, len(s.pool.owner))
	for _, g := range grants {
		if g.Index < 0 || g.Index >= len(ts) {
			continue
		}
		t := ts[g.Index]
		if t.state != tenantWaiting || g.Nodes < 1 || g.Nodes > s.pool.free {
			continue
		}
		s.admitTenant(t, g.Nodes)
	}
}

// admitTenant leases the grant, builds the tenant's coordinator over the
// leased capacity, and starts it on the shared engine.
func (s *Service) admitTenant(t *tenant, nodes int) {
	ids := s.pool.lease(t, nodes)
	caps := make([]cluster.NodeCapacity, len(ids))
	for i, id := range ids {
		caps[i] = s.pool.caps[id]
	}
	cfg := t.spec.Config
	machine := cfg.Machine
	if machine.Nodes != len(caps) {
		// A partial grant reshapes the tenant's partition; the full-demand
		// case keeps the tenant's own spec so a single-tenant service run
		// is bit-identical to the private-cluster campaign.
		machine = fleet.SpecFor("lease-"+t.name(), caps)
	}
	cfg.Machine = cluster.Spec{}
	cfg.Pilots = []core.PilotSpec{{Name: "pilot", Machine: machine, Nodes: caps}}
	coord, err := core.NewCoordinator(t.targets, cfg)
	if err != nil {
		s.pool.releaseAll(t)
		t.err = err
		s.finishTenant(t)
		return
	}
	t.coord = coord
	if err := coord.StartOn(s.engine, func() { s.onTenantDone(t) }); err != nil {
		s.pool.releaseAll(t)
		t.err = err
		s.finishTenant(t)
		return
	}
	t.pilot = coord.Pilots()[0]
	for i, id := range ids {
		t.pilotToPool[i] = id
	}
	t.state = tenantRunning
	t.admitted = s.engine.Now()
	t.granted = len(ids)
}

// onTenantDone fires from the tenant coordinator's quiesce hook: the
// tenant's last pipeline drained on the shared timeline. Its leases
// return to the pool and the freed capacity immediately goes back
// through admission.
func (s *Service) onTenantDone(t *tenant) {
	t.finished = s.engine.Now()
	s.pool.releaseAll(t)
	s.finishTenant(t)
	if s.remaining > 0 {
		s.admissionPass()
	}
}

// finishTenant retires a tenant (successfully or not) and stops the
// reclaim ticker once nobody is left — a standing ticker would keep the
// engine alive forever.
func (s *Service) finishTenant(t *tenant) {
	if t.state == tenantDone {
		return
	}
	t.state = tenantDone
	if t.finished == 0 {
		t.finished = s.engine.Now()
	}
	s.remaining--
	if s.remaining == 0 && s.ticker != nil {
		s.ticker.Stop()
		s.ticker = nil
	}
}

// reclaimTick is the inter-campaign steering observation: expand
// under-share tenants from free capacity, then let the reclaim policy
// move whole nodes from over-share tenants to starving ones through the
// shrink (idle) or checkpoint/evict/resume (busy) drain path.
func (s *Service) reclaimTick() {
	if s.remaining == 0 {
		return
	}
	vs, ts := s.views()
	if len(vs) == 0 {
		return
	}
	shares := s.admit.Shares(vs, len(s.pool.owner))

	// Expansion: demand-driven growth from the free pool, one node per
	// tenant per tick, arrival order.
	for i, t := range ts {
		if t.state != tenantRunning || s.pool.free == 0 {
			continue
		}
		if float64(t.held) < shares[i]-0.5 && t.held < t.spec.Nodes && t.pilot.QueueLen() > 0 {
			s.growTenant(t, 1)
		}
	}

	// Reclaim: whole-node moves from over-share tenants toward pressure.
	// Waiting tenants count as receivers — their whole campaign is queue
	// pressure — so an over-share incumbent can be shrunk to open room
	// for an arrival the admission pass alone could never seat.
	stats := make([]steer.TenantStat, len(ts))
	for i, t := range ts {
		st := steer.TenantStat{
			Name:  t.name(),
			Share: shares[i],
			Nodes: t.held,
		}
		if t.state == tenantRunning {
			st.Queue = t.pilot.QueueLen()
		} else {
			st.Queue = t.spec.Nodes
		}
		stats[i] = st
	}
	for _, mv := range s.reclaim.Decide(stats) {
		if mv.From < 0 || mv.From >= len(ts) || mv.To < 0 || mv.To >= len(ts) || mv.From == mv.To {
			continue
		}
		from, to := ts[mv.From], ts[mv.To]
		if from.state != tenantRunning {
			continue
		}
		if to.state == tenantRunning {
			s.moveNode(from, to)
		} else {
			// Receiver still waits at the admission gate: return the
			// reclaimed node to the free pool and re-run admission once
			// the tick's moves are in.
			if s.reclaimToPool(from) {
				s.engine.Defer(s.admissionPass)
			}
		}
	}
}

// growTenant leases n free nodes and grows them into the tenant's pilot.
func (s *Service) growTenant(t *tenant, n int) {
	for _, id := range s.pool.lease(t, n) {
		pid := t.pilot.GrowNode(s.pool.caps[id], nil)
		t.pilotToPool[pid] = id
		t.regranted++
	}
}

// drainNode takes one whole node away from a running tenant: an idle
// node shrinks cleanly; a busy node drains through the
// checkpoint/evict/resume path, its resident attempts requeued to resume
// on the tenant's remaining capacity. Returns the node's capacity and
// its shared-pool ID (the lease is still the donor's — the caller
// decides whether it transfers or releases).
func (s *Service) drainNode(from *tenant) (cluster.NodeCapacity, int, bool) {
	donor := from.pilot
	var (
		nc  cluster.NodeCapacity
		pid int
		ok  bool
	)
	if idle := donor.Cluster().TransferableNodes(); len(idle) > 0 {
		// Prefer the highest-ID idle node: the most recently granted
		// capacity leaves first, keeping the tenant's founding grant
		// intact.
		pid = idle[len(idle)-1]
		if got, _, err := donor.ShrinkNode(pid); err == nil {
			nc, ok = got, true
		}
	}
	if !ok {
		// No idle node: drain the highest live node through
		// checkpoint/evict/resume. Work resumes on the donor's own
		// remaining nodes from its last checkpoint.
		clu := donor.Cluster()
		for pid = clu.NodeCount() - 1; pid >= 0; pid-- {
			if clu.NodeIsRemoved(pid) || clu.NodeIsDown(pid) {
				continue
			}
			if got, _, err := donor.EvictNode(pid, donor.ID); err == nil {
				nc, ok = got, true
				break
			}
		}
	}
	if !ok {
		return cluster.NodeCapacity{}, 0, false
	}
	poolID, mapped := from.pilotToPool[pid]
	if !mapped {
		panic(fmt.Sprintf("tenancy: tenant %s node %d has no pool lease", from.name(), pid))
	}
	delete(from.pilotToPool, pid)
	from.reclaimed++
	return nc, poolID, true
}

// moveNode reclaims one node from the donor and grows it straight into
// the receiver; the lease transfers on the pool ledger without the node
// ever passing through the free pool.
func (s *Service) moveNode(from, to *tenant) {
	nc, poolID, ok := s.drainNode(from)
	if !ok {
		return
	}
	s.pool.give(from, to, poolID)
	newPid := to.pilot.GrowNode(nc, nil)
	to.pilotToPool[newPid] = poolID
	to.regranted++
}

// reclaimToPool reclaims one node from the donor back into the free
// pool, opening room at the admission gate.
func (s *Service) reclaimToPool(from *tenant) bool {
	_, poolID, ok := s.drainNode(from)
	if !ok {
		return false
	}
	s.pool.release(from, poolID)
	return true
}

// aggregate synthesizes the service-level result: per-tenant stats plus
// pooled campaign aggregates, shaped like a single campaign record so
// reporting and persistence work unchanged.
func (s *Service) aggregate() *core.Result {
	end := s.engine.Now()
	agg := &core.Result{
		Approach:     "TENANTS",
		Seed:         s.cfg.Seed,
		Admission:    s.admit.Name(),
		Pool:         ga.NewPool(),
		Makespan:     end.Duration(),
		TotalCores:   s.pool.cores,
		TotalGPUs:    s.pool.gpus,
		Starting:     make(map[string]landscape.Metrics),
		FinalBest:    make(map[string]landscape.Metrics),
		FinalDesigns: make(map[string]*protein.Structure),
	}
	usedCPU, usedGPU := 0.0, 0.0
	policies := map[string]bool{}
	for _, t := range s.tenants {
		r := t.result
		wait := t.admitted.Sub(t.arrived)
		runtime := t.finished.Sub(t.admitted)
		slowdown := 1.0
		if runtime > 0 {
			slowdown = float64(wait+runtime) / float64(runtime)
		}
		agg.Tenants = append(agg.Tenants, core.TenantStat{
			Name:         t.name(),
			Weight:       t.spec.Weight,
			Nodes:        t.granted,
			Arrived:      t.arrived.Duration(),
			Admitted:     t.admitted.Duration(),
			Finished:     t.finished.Duration(),
			Wait:         wait,
			Runtime:      runtime,
			Slowdown:     slowdown,
			Trajectories: r.TrajectoryCount(),
			Tasks:        r.TaskCount,
			Reclaimed:    t.reclaimed,
			Granted:      t.regranted,
		})
		for _, name := range r.Targets {
			agg.Targets = append(agg.Targets, t.name()+"/"+name)
		}
		agg.Trajectories = append(agg.Trajectories, r.Trajectories...)
		agg.BasePipelines += r.BasePipelines
		agg.SubPipelines += r.SubPipelines
		agg.EarlyTerminated += r.EarlyTerminated
		agg.Evaluations += r.Evaluations
		agg.TaskCount += r.TaskCount
		agg.FailedTasks += r.FailedTasks
		agg.AggregateTaskTime += r.AggregateTaskTime
		agg.NodeTransfers += t.reclaimed
		usedCPU += r.CPUUtilization * float64(r.TotalCores) * float64(r.Makespan)
		usedGPU += r.GPUUtilization * float64(r.TotalGPUs) * float64(r.Makespan)
		for _, e := range r.Pool.Entries() {
			agg.Pool.Add(e)
		}
		for name, m := range r.Starting {
			agg.Starting[t.name()+"/"+name] = m
		}
		for name, m := range r.FinalBest {
			agg.FinalBest[t.name()+"/"+name] = m
		}
		for name, st := range r.FinalDesigns {
			agg.FinalDesigns[t.name()+"/"+name] = st
		}
		for _, p := range r.Pilots {
			agg.Pilots = append(agg.Pilots, t.name()+"/"+p)
		}
		for _, p := range r.Policies {
			policies[p] = true
		}
		agg.TaskRecords = append(agg.TaskRecords, r.TaskRecords...)
	}
	if c := float64(s.pool.cores) * float64(end.Duration()); c > 0 {
		agg.CPUUtilization = usedCPU / c
	}
	if g := float64(s.pool.gpus) * float64(end.Duration()); g > 0 {
		agg.GPUUtilization = usedGPU / g
	}
	for p := range policies {
		agg.Policies = append(agg.Policies, p)
	}
	sort.Strings(agg.Policies)
	sort.SliceStable(agg.TaskRecords, func(i, j int) bool {
		a, b := agg.TaskRecords[i], agg.TaskRecords[j]
		if a.Submitted != b.Submitted {
			return a.Submitted < b.Submitted
		}
		return a.ID < b.ID
	})
	return agg
}

// runIndexed is the bounded worker pool for pre-simulation workload
// construction (a local copy of the campaign engine's shape; importing
// it would cycle).
func runIndexed(n, workers int, fn func(int)) {
	if n <= 0 {
		return
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	if workers > n {
		workers = n
	}
	jobs := make(chan int)
	done := make(chan struct{})
	for w := 0; w < workers; w++ {
		go func() {
			for i := range jobs {
				fn(i)
			}
			done <- struct{}{}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	for w := 0; w < workers; w++ {
		<-done
	}
}
