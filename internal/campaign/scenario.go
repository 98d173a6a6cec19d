package campaign

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"impress/internal/cluster"
	"impress/internal/core"
	"impress/internal/fault"
	"impress/internal/fleet"
	"impress/internal/report"
	"impress/internal/sched"
	"impress/internal/steer"
	"impress/internal/tenancy"
	"impress/internal/workload"
)

// Params parameterizes scenario construction. The zero value is usable:
// scenarios substitute their documented defaults for zero counts (seed 0
// is a valid seed and is used as given).
type Params struct {
	// Seed is the base campaign seed.
	Seed uint64
	// Seeds is the sweep width for multi-seed scenarios (default 8).
	Seeds int
	// Targets is the screen width for screen scenarios (default 70).
	Targets int
	// SplitPilots places every campaign on the heterogeneous CPU/GPU
	// pilot pair instead of the single shared pilot.
	SplitPilots bool
	// Nodes scales every campaign's machine to that many Amarel nodes
	// (0 or 1 keeps each scenario's own machine — the paper's single
	// node, or elastic-screen's 4). Steering needs >= 2 so partitions
	// have something to transfer.
	Nodes int
	// Policy sets the agent scheduling policy for every campaign
	// (internal/sched name; empty keeps each protocol's default). The
	// policy-compare scenario rejects it at build time — racing all
	// policies is its whole point.
	Policy string
	// Fault declares failure models injected into every campaign
	// (internal/fault.Spec; the zero value injects nothing). The
	// fault-sweep scenario uses its TaskFailProb — when non-zero — as a
	// single-rate grid and carries the other models (NodeMTBF, Walltime)
	// into every cell.
	Fault fault.Spec
	// Recovery sets the fault-recovery policy for every campaign
	// (internal/fault name; empty keeps "none"). The fault-sweep
	// scenario rejects it — racing all recovery policies is its point.
	Recovery string
	// FaultRates is the failure-rate grid for the fault-sweep scenario
	// (default 0.05, 0.15, 0.30).
	FaultRates []float64
	// Steer sets the elastic-steering policy for every campaign
	// (internal/steer name; empty keeps partitions frozen). Steering
	// needs a multi-pilot placement, so it is normally combined with
	// SplitPilots. The elastic-screen scenario rejects it at build time —
	// racing every steering policy is its whole point.
	Steer string
	// Fleet is a node-template spec (internal/fleet syntax, e.g.
	// "cpu:28c0g128m*900+gpu:8c4g32m*100@rackB", with optional @domain
	// failure-domain labels) for scenarios that run on a generated
	// heterogeneous fleet; empty keeps each scenario's default. The
	// kilo-screen and chaos-sweep scenarios consume it — like Targets
	// for pair, other scenarios ignore it.
	Fleet string
	// Telemetry turns the observability recorder on in every campaign:
	// instants, steering ticks, and gauge series land in each Result's
	// Telemetry field (the -chrome-trace exporter's raw material).
	// Recording never alters virtual-time behavior.
	Telemetry bool
	// CheckpointInterval sets the checkpoint cadence for evict-and-resume
	// in every campaign (0 keeps checkpointing off). The preempt-sweep
	// scenario rejects it — racing checkpoint intervals is its point.
	CheckpointInterval time.Duration
	// WalltimeGrace sets the graceful drain window at fault-model
	// walltime expiry in every campaign (0 keeps the hard kill).
	WalltimeGrace time.Duration
	// Tenants is the number of arriving campaigns in the tenant-sweep
	// scenario (default 8). Other scenarios ignore it.
	Tenants int
	// Arrival names the tenant arrival process for tenant-sweep
	// (internal/fleet kind: instant, linear, exponential, wave; empty
	// keeps wave).
	Arrival string
	// ArrivalSpan is the tenant arrival window for tenant-sweep
	// (default 12h; ignored for instant arrivals).
	ArrivalSpan time.Duration
	// Admission restricts tenant-sweep to a single admission-control
	// policy (internal/tenancy name); empty races all of them — the
	// scenario's whole point.
	Admission string
	// Reclaim names the inter-campaign steering policy for tenant-sweep
	// (internal/steer tenant name; empty keeps fairshare, "none"
	// freezes every admission grant for life).
	Reclaim string
}

// The sweep and screen widths scenarios default to unless they declare
// their own.
const defaultSeeds, defaultTargets = 8, 70

// withDefaults substitutes a scenario's default sweep width and screen
// width for zero (or negative) Seeds and Targets.
func (p Params) withDefaults(seeds, targets int) Params {
	if p.Seeds <= 0 {
		p.Seeds = seeds
	}
	if p.Targets <= 0 {
		p.Targets = targets
	}
	return p
}

// Scenario declares a family of campaigns as data: a name, a
// description, and a builder from Params to concrete Campaign values.
// New workloads register a Scenario instead of writing a new main().
type Scenario struct {
	Name        string
	Description string
	Build       func(p Params) ([]Campaign, error)
	// Report, when set, renders a scenario-level summary over the
	// completed results of one run (e.g. the policy-compare table).
	// Nil means the scenario has no cross-campaign report.
	Report func(results []*core.Result) string
	// ReportCSV, when set, writes the scenario's per-campaign report
	// rows as CSV — the machine-readable companion of Report.
	ReportCSV func(w io.Writer, results []*core.Result) error
}

var registry = struct {
	mu     sync.Mutex
	byName map[string]Scenario
}{byName: make(map[string]Scenario)}

// Register adds a scenario to the global registry. Re-registering a name
// is an error so two workloads cannot silently shadow each other.
func Register(s Scenario) error {
	if s.Name == "" || s.Build == nil {
		return fmt.Errorf("campaign: scenario needs a name and a builder")
	}
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if _, dup := registry.byName[s.Name]; dup {
		return fmt.Errorf("campaign: scenario %q already registered", s.Name)
	}
	registry.byName[s.Name] = s
	return nil
}

// Lookup returns a registered scenario by name.
func Lookup(name string) (Scenario, bool) {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	s, ok := registry.byName[name]
	return s, ok
}

// Names returns the registered scenario names, sorted.
func Names() []string {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	names := make([]string, 0, len(registry.byName))
	for n := range registry.byName {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Scenarios returns all registered scenarios, sorted by name.
func Scenarios() []Scenario {
	names := Names()
	out := make([]Scenario, 0, len(names))
	for _, n := range names {
		s, _ := Lookup(n)
		out = append(out, s)
	}
	return out
}

// Build constructs the campaigns of a named scenario.
func Build(name string, p Params) ([]Campaign, error) {
	s, ok := Lookup(name)
	if !ok {
		return nil, fmt.Errorf("campaign: unknown scenario %q (known: %v)", name, Names())
	}
	return s.Build(p)
}

// Configure applies the execution knobs of p to a protocol config: the
// machine size and split CPU/GPU pilot pair, the scheduling policy, the
// fault/recovery configuration, steering, telemetry and checkpointed
// preemption. Zero-valued knobs keep cfg's own setting. Every scenario,
// the paper experiments and impress-run's single campaign configure
// through it, so a new core.Config knob needs one line here.
func Configure(cfg core.Config, p Params) (core.Config, error) {
	if p.Nodes > 1 {
		// Scale the machine before any split derives partitions from it.
		cfg.Machine = cluster.AmarelCluster(p.Nodes)
	}
	if p.SplitPilots {
		pilots, err := core.SplitPilots(cfg.Machine)
		if err != nil {
			return cfg, err
		}
		cfg.Pilots = pilots
	}
	if p.Policy != "" {
		if err := sched.Validate(p.Policy); err != nil {
			return cfg, err
		}
		cfg.Policy = p.Policy
	}
	if p.Fault.Enabled() {
		if err := p.Fault.Validate(); err != nil {
			return cfg, err
		}
		cfg.Fault = p.Fault
	}
	if p.Recovery != "" {
		if err := fault.Validate(p.Recovery); err != nil {
			return cfg, err
		}
		cfg.Recovery = p.Recovery
	}
	if p.Steer != "" {
		if err := steer.Validate(p.Steer); err != nil {
			return cfg, err
		}
		cfg.Steer = p.Steer
	}
	if p.Telemetry {
		cfg.Telemetry = true
	}
	if p.CheckpointInterval > 0 {
		cfg.CheckpointInterval = p.CheckpointInterval
	}
	if p.WalltimeGrace > 0 {
		cfg.WalltimeGrace = p.WalltimeGrace
	}
	return cfg, nil
}

// configureOn is Configure for scenarios that own their machine and
// pilot placement: the Nodes and SplitPilots knobs do not apply, and the
// scenario's pilots replace the config's.
func configureOn(cfg core.Config, p Params, pilots []core.PilotSpec) (core.Config, error) {
	p.Nodes, p.SplitPilots = 0, false
	cfg, err := Configure(cfg, p)
	cfg.Pilots = pilots
	return cfg, err
}

// pairAt builds the paper's CONT-V + IM-RP pair over the four named PDZ
// domains at one seed.
func pairAt(seed uint64, p Params) ([]Campaign, error) {
	targets, err := workload.NamedTargets(seed, workload.DefaultConfig())
	if err != nil {
		return nil, err
	}
	ctrlCfg, err := Configure(core.ControlConfig(seed), p)
	if err != nil {
		return nil, err
	}
	adptCfg, err := Configure(core.AdaptiveConfig(seed), p)
	if err != nil {
		return nil, err
	}
	return []Campaign{
		{Name: fmt.Sprintf("contv/seed%d", seed), Seed: seed, Targets: targets, Config: ctrlCfg, Control: true},
		{Name: fmt.Sprintf("imrp/seed%d", seed), Seed: seed, Targets: targets, Config: adptCfg},
	}, nil
}

// screenAt builds one IM-RP campaign over n PDB-mined complexes.
func screenAt(seed uint64, n int, p Params) ([]Campaign, error) {
	targets, err := workload.MinedScreen(seed, n, workload.DefaultConfig())
	if err != nil {
		return nil, err
	}
	cfg, err := Configure(core.AdaptiveConfig(seed), p)
	if err != nil {
		return nil, err
	}
	return []Campaign{{
		Name:    fmt.Sprintf("screen%d/seed%d", n, seed),
		Seed:    seed,
		Targets: targets,
		Config:  cfg,
	}}, nil
}

// perSeed concatenates the campaigns build returns for each of the
// p.Seeds consecutive seeds starting at p.Seed.
func perSeed(p Params, build func(seed uint64) ([]Campaign, error)) ([]Campaign, error) {
	var all []Campaign
	for i := 0; i < p.Seeds; i++ {
		cs, err := build(p.Seed + uint64(i))
		if err != nil {
			return nil, err
		}
		all = append(all, cs...)
	}
	return all, nil
}

// tenantSweepAt builds one multi-tenant service campaign per admission
// policy at one seed: Tenants arriving screen campaigns contending for
// one shared pool. The tenant stream is the control variable, admission
// control is the treatment — every cell sees the identical arrivals,
// demands, weights, and workload seeds.
func tenantSweepAt(seed uint64, admissions []string, p Params) ([]Campaign, error) {
	if p.SplitPilots {
		return nil, fmt.Errorf("campaign: tenant-sweep places each tenant on a single leased pilot; the split placement does not apply")
	}
	poolNodes := p.Nodes
	if poolNodes <= 1 {
		poolNodes = 12
	}
	machine := cluster.AmarelCluster(poolNodes)
	var caps []cluster.NodeCapacity
	if p.Fleet != "" {
		ts, err := fleet.ParseSpec(p.Fleet)
		if err != nil {
			return nil, err
		}
		caps, err = fleet.Generate(seed, ts)
		if err != nil {
			return nil, err
		}
		machine = fleet.SpecFor(fmt.Sprintf("fleet%d", seed), caps)
	}
	arrival := p.Arrival
	if arrival == "" {
		arrival = fleet.ArrivalWave
	}
	span := p.ArrivalSpan
	if span <= 0 {
		span = 12 * time.Hour
	}
	reclaim := p.Reclaim
	if reclaim == "" {
		reclaim = "fairshare"
	}
	perTenant := (p.Targets + p.Tenants - 1) / p.Tenants
	var all []Campaign
	for _, adm := range admissions {
		spec := tenancy.Spec{Config: tenancy.Config{
			Machine:   machine,
			Nodes:     caps,
			Seed:      seed,
			Arrival:   arrival,
			Span:      span,
			Admission: adm,
			Reclaim:   reclaim,
		}}
		for i := 0; i < p.Tenants; i++ {
			tseed := seed + uint64(i)
			cfg, err := Configure(core.AdaptiveConfig(tseed), p)
			if err != nil {
				return nil, err
			}
			if cfg.CheckpointInterval == 0 {
				// Reclaim drains nodes through checkpoint/evict/resume;
				// a default cadence keeps the preempted remainder small.
				cfg.CheckpointInterval = 30 * time.Minute
			}
			spec.Tenants = append(spec.Tenants, tenancy.TenantSpec{
				Name:        fmt.Sprintf("t%d", i),
				Seed:        tseed,
				Weight:      float64(1 + i%3),
				Nodes:       2 + i%3,
				TargetCount: perTenant,
				Config:      cfg,
			})
		}
		all = append(all, Campaign{
			Name:    fmt.Sprintf("tenants/%s/seed%d", adm, seed),
			Seed:    seed,
			Tenancy: &spec,
		})
	}
	return all, nil
}

// policyCompareAt builds one IM-RP campaign per registered scheduling
// policy at one seed, all over the identical named-PDZ workload — the
// cluster-simulator experiment shape: the workload is the control
// variable, the scheduler is the treatment.
func policyCompareAt(seed uint64, p Params) ([]Campaign, error) {
	targets, err := workload.NamedTargets(seed, workload.DefaultConfig())
	if err != nil {
		return nil, err
	}
	var all []Campaign
	for _, pol := range sched.Names() {
		cell := p
		cell.Policy = pol
		cfg, err := Configure(core.AdaptiveConfig(seed), cell)
		if err != nil {
			return nil, err
		}
		all = append(all, Campaign{
			Name:    fmt.Sprintf("policy/%s/seed%d", pol, seed),
			Seed:    seed,
			Targets: targets,
			Config:  cfg,
		})
	}
	return all, nil
}

// faultSweepAt builds one seed's slice of the resilience sweep: a
// fault-free IM-RP baseline plus one campaign per (recovery policy,
// failure rate) cell, all over the identical named-PDZ workload — the
// workload is the control variable, the failure model and the recovery
// policy are the treatments.
func faultSweepAt(seed uint64, rates []float64, p Params) ([]Campaign, error) {
	targets, err := workload.NamedTargets(seed, workload.DefaultConfig())
	if err != nil {
		return nil, err
	}
	base := p
	base.Fault = fault.Spec{}
	baseCfg, err := Configure(core.AdaptiveConfig(seed), base)
	if err != nil {
		return nil, err
	}
	all := []Campaign{{
		Name:    fmt.Sprintf("fault/baseline/seed%d", seed),
		Seed:    seed,
		Targets: targets,
		Config:  baseCfg,
	}}
	for _, rate := range rates {
		for _, rec := range fault.Names() {
			cell := p
			cell.Fault.TaskFailProb = rate
			cell.Recovery = rec
			cfg, err := Configure(core.AdaptiveConfig(seed), cell)
			if err != nil {
				return nil, err
			}
			all = append(all, Campaign{
				Name:    fmt.Sprintf("fault/%s/p%.2f/seed%d", rec, rate, seed),
				Seed:    seed,
				Targets: targets,
				Config:  cfg,
			})
		}
	}
	return all, nil
}

// FleetPilots generates a seed-deterministic heterogeneous fleet from a
// template spec (internal/fleet syntax) and splits it into the standard
// two-pilot placement: a CPU pilot holding every GPU-less node and a GPU
// pilot holding the rest, each with its explicit node capacities. The
// same (spec, seed) pair yields the same pilots on every run.
func FleetPilots(spec string, seed uint64) ([]core.PilotSpec, error) {
	ts, err := fleet.ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	caps, err := fleet.Generate(seed, ts)
	if err != nil {
		return nil, err
	}
	var cpu, gpu []cluster.NodeCapacity
	for _, nc := range caps {
		if nc.GPUs > 0 {
			gpu = append(gpu, nc)
		} else {
			cpu = append(cpu, nc)
		}
	}
	if len(cpu) == 0 || len(gpu) == 0 {
		return nil, fmt.Errorf("campaign: fleet %q needs both CPU and GPU nodes for the split placement", spec)
	}
	return []core.PilotSpec{
		{Name: "pilot-cpu", Machine: fleet.SpecFor("fleet-cpu", cpu), Nodes: cpu, Serves: []core.ResourceClass{core.ClassCPU}},
		{Name: "pilot-gpu", Machine: fleet.SpecFor("fleet-gpu", gpu), Nodes: gpu, Serves: []core.ResourceClass{core.ClassGPU}},
	}, nil
}

// The kilo-screen defaults: a 1000-node fleet with a deliberately lean
// CPU rack — four nodes of 8 cores, each fitting the largest CPU stage
// exactly — and a GPU rack carrying the fleet to the kilo floor. The
// tight CPU/target ratio means the CPU pilot starves under any real
// screen, so steering has eligible GPU→CPU transfers and the indexed
// allocation ledger is exercised through every mutation path
// (allocate/release/crash/repair/transfer) at the scale it exists for.
const (
	kiloFleetSpec = "cpu:8c0g32m*4+gpu:8c4g32m*996"
	kiloMinNodes  = 1000
	kiloTargets   = 128
)

// kiloScreenAt builds one IM-RP screen campaign on a generated kilo-node
// fleet.
func kiloScreenAt(seed uint64, n int, p Params) ([]Campaign, error) {
	targets, err := workload.MinedScreen(seed, n, workload.DefaultConfig())
	if err != nil {
		return nil, err
	}
	spec := p.Fleet
	if spec == "" {
		spec = kiloFleetSpec
	}
	pilots, err := FleetPilots(spec, seed)
	if err != nil {
		return nil, err
	}
	total := 0
	for _, ps := range pilots {
		total += len(ps.Nodes)
	}
	if total < kiloMinNodes {
		return nil, fmt.Errorf("campaign: kilo-screen needs a fleet of >= %d nodes, got %d from %q", kiloMinNodes, total, spec)
	}
	cfg, err := configureOn(core.AdaptiveConfig(seed), p, pilots)
	if err != nil {
		return nil, err
	}
	return []Campaign{{
		Name:    fmt.Sprintf("kilo%d/seed%d", total, seed),
		Seed:    seed,
		Targets: targets,
		Config:  cfg,
	}}, nil
}

// The chaos-sweep defaults: a small labeled fleet spread over four
// failure domains (two CPU racks, two GPU racks) and a correlated
// failure mix that exercises every domain model at once — per-node
// crashes, whole-rack outages, same-rack cascades, and a recurring
// maintenance window on rackA. The CPU nodes are deliberately lean
// (8 cores fits the largest CPU stage exactly) so losing a rack builds
// real queue pressure and the steering dimension of the grid has
// eligible GPU→CPU transfers to race.
const chaosFleetSpec = "cpuA:8c0g32m*3@rackA+cpuB:8c0g32m*3@rackB+gpuC:8c4g32m*2@rackC+gpuD:8c4g32m*2@rackD"

// chaosFaultSpec is the fixed failure mix every chaos-sweep cell races
// under (the grid varies recovery and steering, not the failure model).
func chaosFaultSpec() fault.Spec {
	return fault.Spec{
		TaskFailProb: 0.02,
		NodeMTBF:     12 * time.Hour,
		Domains: fault.DomainSpec{
			OutageMTBF:     24 * time.Hour,
			OutageDuration: 45 * time.Minute,
			CascadeProb:    0.25,
			Maintenance: []fault.Maintenance{
				{Domain: "rackA", Start: 8 * time.Hour, Duration: 45 * time.Minute, Every: 24 * time.Hour},
			},
		},
	}
}

// chaosSweepAt builds one seed's slice of the chaos grid: a fault-free
// frozen baseline plus one campaign per (recovery policy, steering
// policy) cell, all over the identical screen workload on the identical
// labeled fleet — the workload and the failure schedule are the control
// variables, recovery and steering are the treatments.
func chaosSweepAt(seed uint64, n int, p Params) ([]Campaign, error) {
	targets, err := workload.MinedScreen(seed, n, workload.DefaultConfig())
	if err != nil {
		return nil, err
	}
	spec := p.Fleet
	if spec == "" {
		spec = chaosFleetSpec
	}
	pilots, err := FleetPilots(spec, seed)
	if err != nil {
		return nil, err
	}
	mkConfig := func(cell Params) (core.Config, error) {
		return configureOn(core.AdaptiveConfig(seed), cell, pilots)
	}
	base := p
	base.Fault = fault.Spec{}
	base.Recovery = ""
	base.Steer = "none"
	baseCfg, err := mkConfig(base)
	if err != nil {
		return nil, err
	}
	all := []Campaign{{
		Name:    fmt.Sprintf("chaos/baseline/seed%d", seed),
		Seed:    seed,
		Targets: targets,
		Config:  baseCfg,
	}}
	fs := p.Fault
	if !fs.Enabled() {
		fs = chaosFaultSpec()
	}
	for _, rec := range fault.Names() {
		for _, st := range steer.Names() {
			cell := p
			cell.Fault = fs
			cell.Recovery = rec
			cell.Steer = st
			cfg, err := mkConfig(cell)
			if err != nil {
				return nil, err
			}
			all = append(all, Campaign{
				Name:    fmt.Sprintf("chaos/%s+%s/seed%d", rec, st, seed),
				Seed:    seed,
				Targets: targets,
				Config:  cfg,
			})
		}
	}
	return all, nil
}

// The preempt-sweep defaults: a 4-node Amarel machine split into two
// CPU pilots and one GPU pilot, with a fault-model walltime bounding
// only the first CPU pilot — the second CPU pilot is the survivor the
// expiring pilot's work must land on. The grid then races what happens
// to the interrupted work: checkpoint cadence (including off), hard
// kill vs graceful drain at the deadline, and frozen vs preemptive
// steering.
const (
	preemptNodes    = 4
	preemptWalltime = 2 * time.Hour
	preemptGrace    = 45 * time.Minute
)

// preemptIntervals is the checkpoint-cadence axis of the preempt grid:
// off (attempts restart from zero), and two real cadences bracketing
// the typical stage duration.
var preemptIntervals = []time.Duration{0, 15 * time.Minute, time.Hour}

// preemptPilots splits a machine into the preempt-sweep placement: the
// CPU partition halved into two pilots (so one can expire while the
// other absorbs its drained work) plus the standard GPU pilot.
func preemptPilots(machine cluster.Spec) ([]core.PilotSpec, error) {
	cpu, gpu, err := cluster.SplitCPUGPU(machine, 2*machine.GPUsPerNode, machine.MemGBPerNode/4)
	if err != nil {
		return nil, err
	}
	if cpu.Nodes < 2 {
		return nil, fmt.Errorf("campaign: preempt-sweep needs >= 2 CPU nodes to split into an expiring pilot and a survivor, got %d", cpu.Nodes)
	}
	cpuA, cpuB := cpu, cpu
	cpuA.Nodes = cpu.Nodes / 2
	cpuB.Nodes = cpu.Nodes - cpuA.Nodes
	return []core.PilotSpec{
		{Name: "pilot-cpu-a", Machine: cpuA, Serves: []core.ResourceClass{core.ClassCPU}},
		{Name: "pilot-cpu-b", Machine: cpuB, Serves: []core.ResourceClass{core.ClassCPU}},
		{Name: "pilot-gpu", Machine: gpu, Serves: []core.ResourceClass{core.ClassGPU}},
	}, nil
}

// durLabel renders a duration compactly for campaign names: "15m", "1h",
// "0".
func durLabel(d time.Duration) string {
	s := d.String()
	s = strings.TrimSuffix(s, "0s")
	s = strings.TrimSuffix(s, "0m")
	if s == "" {
		s = "0"
	}
	return s
}

// preemptSweepAt builds one seed's slice of the preemption grid: a
// fault-free baseline plus one campaign per (checkpoint interval,
// kill-vs-drain, steering mode) cell, all over the identical screen
// workload on the identical three-pilot machine with the identical
// walltime bounding pilot-cpu-a. The workload and the interruption
// schedule are the control variables; what happens to interrupted work
// is the treatment.
func preemptSweepAt(seed uint64, n int, p Params) ([]Campaign, error) {
	targets, err := workload.MinedScreen(seed, n, workload.DefaultConfig())
	if err != nil {
		return nil, err
	}
	machine := cluster.AmarelCluster(preemptNodes)
	pilots, err := preemptPilots(machine)
	if err != nil {
		return nil, err
	}
	rec := p.Recovery
	if rec == "" {
		rec = "elsewhere"
	}
	mkConfig := func(cell Params, wall *fault.Spec) (core.Config, error) {
		cfg := core.AdaptiveConfig(seed)
		cfg.Machine = machine
		ps := append([]core.PilotSpec(nil), pilots...)
		ps[0].Fault = wall
		return configureOn(cfg, cell, ps)
	}
	base := p
	base.Fault = fault.Spec{}
	base.Recovery = ""
	base.Steer = "none"
	base.CheckpointInterval = 0
	base.WalltimeGrace = 0
	baseCfg, err := mkConfig(base, nil)
	if err != nil {
		return nil, err
	}
	all := []Campaign{{
		Name:    fmt.Sprintf("preempt/baseline/seed%d", seed),
		Seed:    seed,
		Targets: targets,
		Config:  baseCfg,
	}}
	for _, iv := range preemptIntervals {
		for _, mode := range []string{"kill", "drain"} {
			for _, st := range []string{"none", "preempt"} {
				cell := p
				cell.Recovery = rec
				cell.Steer = st
				cell.CheckpointInterval = iv
				cell.WalltimeGrace = 0
				if mode == "drain" {
					cell.WalltimeGrace = preemptGrace
				}
				cfg, err := mkConfig(cell, &fault.Spec{Walltime: preemptWalltime})
				if err != nil {
					return nil, err
				}
				all = append(all, Campaign{
					Name:    fmt.Sprintf("preempt/%s+%s/ck%s/seed%d", mode, st, durLabel(iv), seed),
					Seed:    seed,
					Targets: targets,
					Config:  cfg,
				})
			}
		}
	}
	return all, nil
}

// elasticNodes is the elastic-screen machine size: four Amarel nodes,
// split into a 4-node CPU partition and a 4-node GPU partition, so the
// steering layer has room to move nodes (a single-node split leaves
// nothing transferable once each pilot keeps its floor of one).
const elasticNodes = 4

// elasticScreenAt builds one seed's slice of the steering race: one
// IM-RP screen campaign per registered steering policy — including
// "none", the frozen split every other cell is measured against — all
// over the identical workload on the identical split-pilot machine. The
// workload is the control variable, the steering policy is the
// treatment.
func elasticScreenAt(seed uint64, n int, p Params) ([]Campaign, error) {
	targets, err := workload.MinedScreen(seed, n, workload.DefaultConfig())
	if err != nil {
		return nil, err
	}
	var all []Campaign
	for _, st := range steer.Names() {
		cell := p
		cell.SplitPilots = true
		cell.Steer = st
		cfg := core.AdaptiveConfig(seed)
		cfg.Machine = cluster.AmarelCluster(elasticNodes)
		cfg, err := Configure(cfg, cell)
		if err != nil {
			return nil, err
		}
		all = append(all, Campaign{
			Name:    fmt.Sprintf("elastic/%s/seed%d", st, seed),
			Seed:    seed,
			Targets: targets,
			Config:  cfg,
		})
	}
	return all, nil
}

func init() {
	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	must(Register(Scenario{
		Name:        "pair",
		Description: "CONT-V vs IM-RP over the paper's four PDZ domains (Table I workload)",
		Build: func(p Params) ([]Campaign, error) {
			p = p.withDefaults(defaultSeeds, defaultTargets)
			return pairAt(p.Seed, p)
		},
	}))
	must(Register(Scenario{
		Name:        "sweep",
		Description: "the pair comparison replicated across Seeds consecutive seeds",
		Build: func(p Params) ([]Campaign, error) {
			p = p.withDefaults(defaultSeeds, defaultTargets)
			return perSeed(p, func(seed uint64) ([]Campaign, error) { return pairAt(seed, p) })
		},
	}))
	must(Register(Scenario{
		Name:        "screen",
		Description: "one IM-RP campaign over Targets PDB-mined PDZ-peptide complexes (Fig. 3 workload)",
		Build: func(p Params) ([]Campaign, error) {
			p = p.withDefaults(defaultSeeds, defaultTargets)
			return screenAt(p.Seed, p.Targets, p)
		},
	}))
	must(Register(Scenario{
		Name:        "stress",
		Description: "multi-target stress test: Seeds independent screen campaigns of Targets complexes each",
		Build: func(p Params) ([]Campaign, error) {
			p = p.withDefaults(defaultSeeds, defaultTargets)
			return perSeed(p, func(seed uint64) ([]Campaign, error) { return screenAt(seed, p.Targets, p) })
		},
	}))
	must(Register(Scenario{
		Name: "mega-screen",
		Description: "one IM-RP campaign over at least 128 PDB-mined complexes on the split CPU/GPU pilot pair — " +
			"the perf-harness workload behind BenchmarkMegaScreen (smaller Targets values are raised to 128)",
		Build: func(p Params) ([]Campaign, error) {
			// The floor defines the scenario: "mega" means the simulator
			// is driven well past the paper's 70-complex screen. Explicit
			// larger Targets values pass through.
			if p.Targets < 128 {
				p.Targets = 128
			}
			p.SplitPilots = true
			p = p.withDefaults(defaultSeeds, defaultTargets)
			return screenAt(p.Seed, p.Targets, p)
		},
	}))
	must(Register(Scenario{
		Name: "kilo-screen",
		Description: "one IM-RP screen campaign on a generated heterogeneous fleet of at least 1000 nodes " +
			"(Fleet template spec, default 900 CPU + 100 GPU nodes) with faults and steering on by default — " +
			"the kilo-node workload behind BenchmarkKiloScreen",
		Build: func(p Params) ([]Campaign, error) {
			// "Kilo" is about the fleet, not the screen: the node floor is
			// enforced in kiloScreenAt, while Targets stays tunable so CI
			// race smokes can run a reduced screen on the full fleet.
			p = p.withDefaults(defaultSeeds, kiloTargets)
			// Faults and steering default on — the scenario exists to drive
			// every ledger mutation path (allocate/release/crash/repair/
			// transfer) at scale. Explicit settings pass through.
			if !p.Fault.Enabled() {
				p.Fault = fault.Spec{TaskFailProb: 0.05, NodeMTBF: 24 * time.Hour}
			}
			if p.Recovery == "" {
				p.Recovery = "elsewhere"
			}
			if p.Steer == "" {
				p.Steer = "greedy"
			}
			return kiloScreenAt(p.Seed, p.Targets, p)
		},
	}))
	must(Register(Scenario{
		Name:        "policy-compare",
		Description: "races every scheduling policy (fifo, backfill, bestfit, worstfit, largest) as IM-RP campaigns over a Seeds-wide seed sweep of the four PDZ domains",
		Build: func(p Params) ([]Campaign, error) {
			p = p.withDefaults(defaultSeeds, defaultTargets)
			if p.Policy != "" {
				return nil, fmt.Errorf("campaign: policy-compare races every policy; a fixed policy %q does not apply", p.Policy)
			}
			return perSeed(p, func(seed uint64) ([]Campaign, error) { return policyCompareAt(seed, p) })
		},
		Report:    report.PolicyCompare,
		ReportCSV: report.PolicyCompareCSV,
	}))
	must(Register(Scenario{
		Name: "elastic-screen",
		Description: "races every elastic steering policy (none, greedy, hysteresis) as IM-RP screen campaigns on a " +
			"4-node split CPU/GPU placement over a Seeds-wide seed grid, against the frozen split, " +
			"and reports makespan speedup / utilization / node-transfer counts",
		Build: func(p Params) ([]Campaign, error) {
			// An explicit "none" is the frozen default (and a cell of the
			// race anyway); only an actual steering policy is a conflict.
			if steer.Enabled(p.Steer) {
				return nil, fmt.Errorf("campaign: elastic-screen races every steering policy; a fixed policy %q does not apply", p.Steer)
			}
			// Steering defaults trade grid width for per-cell cost: the
			// screen is a quarter of the paper's 70 complexes and the seed
			// grid half the usual sweep, because every seed runs once per
			// steering policy on a 4× machine. Explicit values pass through.
			p = p.withDefaults(4, 18)
			return perSeed(p, func(seed uint64) ([]Campaign, error) { return elasticScreenAt(seed, p.Targets, p) })
		},
		Report:    report.Elastic,
		ReportCSV: report.ElasticCSV,
	}))
	must(Register(Scenario{
		Name: "fault-sweep",
		Description: "races every fault-recovery policy (none, retry, backoff, elsewhere) across a failure-rate grid " +
			"and a Seeds-wide seed sweep, against fault-free baselines, and reports goodput / wasted work / makespan inflation",
		Build: func(p Params) ([]Campaign, error) {
			p = p.withDefaults(defaultSeeds, defaultTargets)
			if p.Recovery != "" {
				return nil, fmt.Errorf("campaign: fault-sweep races every recovery policy; a fixed policy %q does not apply", p.Recovery)
			}
			rates := p.FaultRates
			if p.Fault.TaskFailProb > 0 {
				rates = []float64{p.Fault.TaskFailProb}
			}
			if len(rates) == 0 {
				rates = []float64{0.05, 0.15, 0.30}
			}
			return perSeed(p, func(seed uint64) ([]Campaign, error) { return faultSweepAt(seed, rates, p) })
		},
		Report:    report.Resilience,
		ReportCSV: report.ResilienceCSV,
	}))
	must(Register(Scenario{
		Name: "chaos-sweep",
		Description: "races every fault-recovery policy × every steering policy on a small labeled fleet under a fixed " +
			"correlated-failure mix (node crashes, whole-rack outages, same-rack cascades, a recurring maintenance window), " +
			"against a fault-free frozen baseline, and reports goodput / makespan inflation / crash+outage counts",
		Build: func(p Params) ([]Campaign, error) {
			if p.Recovery != "" {
				return nil, fmt.Errorf("campaign: chaos-sweep races every recovery policy; a fixed policy %q does not apply", p.Recovery)
			}
			// An explicit "none" is the frozen default (and a cell of the
			// race anyway); only an actual steering policy is a conflict.
			if steer.Enabled(p.Steer) {
				return nil, fmt.Errorf("campaign: chaos-sweep races every steering policy; a fixed policy %q does not apply", p.Steer)
			}
			// The grid is recovery × steering wide, so the defaults keep
			// each cell small: a short screen and a narrow seed sweep.
			// Explicit values pass through.
			p = p.withDefaults(2, 8)
			return perSeed(p, func(seed uint64) ([]Campaign, error) { return chaosSweepAt(seed, p.Targets, p) })
		},
		Report:    report.Chaos,
		ReportCSV: report.ChaosCSV,
	}))
	must(Register(Scenario{
		Name: "preempt-sweep",
		Description: "races checkpoint cadences × (hard kill vs graceful drain) × (frozen vs preemptive steering) on a " +
			"three-pilot machine whose first CPU pilot hits a fault-model walltime mid-screen, against a fault-free " +
			"baseline, and reports goodput / makespan inflation / wasted vs preempted core-hours / evictions / resumes",
		Build: func(p Params) ([]Campaign, error) {
			if p.CheckpointInterval > 0 {
				return nil, fmt.Errorf("campaign: preempt-sweep races checkpoint intervals; a fixed interval %v does not apply", p.CheckpointInterval)
			}
			if p.WalltimeGrace > 0 {
				return nil, fmt.Errorf("campaign: preempt-sweep races hard kill against graceful drain; a fixed grace %v does not apply", p.WalltimeGrace)
			}
			// An explicit "none" is the frozen default (and a cell of the
			// race anyway); only an actual steering policy is a conflict.
			if steer.Enabled(p.Steer) {
				return nil, fmt.Errorf("campaign: preempt-sweep races frozen against preemptive steering; a fixed policy %q does not apply", p.Steer)
			}
			// The grid is interval × mode × steering wide, so the defaults
			// keep each cell small: a short screen and a narrow seed sweep.
			// Explicit values pass through.
			p = p.withDefaults(2, 8)
			return perSeed(p, func(seed uint64) ([]Campaign, error) { return preemptSweepAt(seed, p.Targets, p) })
		},
		Report:    report.Preemption,
		ReportCSV: report.PreemptionCSV,
	}))
	must(Register(Scenario{
		Name: "tenant-sweep",
		Description: "races every admission-control policy (fcfs-admit, quota, weighted-fair) over Tenants arriving " +
			"screen campaigns contending for one shared pool with fairshare quota reclaim, and reports Jain's " +
			"fairness index over per-tenant slowdowns against aggregate makespan",
		Build: func(p Params) ([]Campaign, error) {
			admissions := tenancy.Names()
			if p.Admission != "" {
				if err := tenancy.Validate(p.Admission); err != nil {
					return nil, err
				}
				admissions = []string{p.Admission}
			}
			if err := steer.ValidateTenant(p.Reclaim); err != nil {
				return nil, err
			}
			if p.Arrival != "" {
				if err := fleet.ValidateArrival(p.Arrival); err != nil {
					return nil, err
				}
			}
			// The grid is admission × seeds wide and every cell runs
			// Tenants whole campaigns, so the defaults keep cells small:
			// a short per-tenant screen and a narrow seed sweep. Explicit
			// values pass through.
			p = p.withDefaults(2, 16)
			if p.Tenants <= 0 {
				p.Tenants = 8
			}
			return perSeed(p, func(seed uint64) ([]Campaign, error) { return tenantSweepAt(seed, admissions, p) })
		},
		Report:    report.Fairness,
		ReportCSV: report.FairnessCSV,
	}))
}
