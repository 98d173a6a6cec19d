package pilot

// Tests of crash-chain ownership across elastic transfers — the chain
// migration that makes steered-in nodes crash on their original
// schedule, attributed to their current owner — and of the correlated
// failure-domain models (whole-domain outages, same-domain cascades,
// scheduled maintenance windows).

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"impress/internal/cluster"
	"impress/internal/fault"
	"impress/internal/fleet"
	"impress/internal/simclock"
	"impress/internal/trace"
)

// labeledPilot submits one pilot over explicit node capacities (so tests
// can assign failure-domain labels) on a shared manager.
func labeledPilot(t *testing.T, pm *PilotManager, name string, caps []cluster.NodeCapacity, spec fault.Spec, seed uint64) *Pilot {
	t.Helper()
	p, err := pm.Submit(PilotDescription{
		Machine:  fleet.SpecFor(name, caps),
		Nodes:    caps,
		Cost:     testCost(),
		Fault:    spec,
		Recovery: "retry",
		Seed:     seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// stepUntilDown advances the engine until clu reports node id down,
// bounded by the horizon. Reports whether the node went down.
func stepUntilDown(engine *simclock.Engine, clu *cluster.Cluster, id int, horizon simclock.Time) bool {
	for engine.Now() < horizon && engine.Step() {
		if clu.NodeIsDown(id) {
			return true
		}
	}
	return false
}

// TestSteeredInNodeCrashes is the tentpole regression: a node steered
// into another pilot keeps its crash chain, so it still crashes — booked
// by the receiving pilot, under the node's own domain label. Before the
// chain migration, transferred nodes were immortal: the donor's stale
// crash event found the node removed and silently dropped the chain.
func TestSteeredInNodeCrashes(t *testing.T) {
	spec := fault.Spec{NodeMTBF: 6 * time.Hour, NodeRepair: 30 * time.Minute}
	engine := simclock.New()
	rec := trace.NewRecorder(24, 2, 0)
	pm := NewPilotManager(engine, rec)
	donor := labeledPilot(t, pm, "donor", []cluster.NodeCapacity{
		{Cores: 8, MemGB: 32, Domain: "donor-rack"},
		{Cores: 8, MemGB: 32, Domain: "donor-rack"},
	}, spec, 3)
	recv := labeledPilot(t, pm, "recv", []cluster.NodeCapacity{
		{Cores: 8, GPUs: 2, MemGB: 32, Domain: "recv-rack"},
	}, spec, 4)

	var grownID int
	engine.After(time.Hour, func() {
		ids := donor.Cluster().TransferableNodes()
		if len(ids) == 0 {
			t.Fatal("donor has nothing transferable at 1h")
		}
		nc, ch, err := donor.ShrinkNode(ids[0])
		if err != nil {
			t.Fatal(err)
		}
		if ch == nil || ch.RNG == nil {
			t.Fatal("no crash chain travelled with the transferred node")
		}
		grownID = recv.GrowNode(nc, ch)
	})
	engine.RunUntil(simclock.Time(24 * 30 * time.Hour))
	donor.StopFaultInjection()
	recv.StopFaultInjection()
	engine.Run()

	byDomain := recv.FaultCountsByDomain()
	if byDomain["donor-rack"] == 0 {
		t.Fatalf("steered-in node never crashed in a month at MTBF 6h (receiver domains: %v)", byDomain)
	}
	crashes, downtime := recv.FaultCounts()
	if crashes < byDomain["donor-rack"] || downtime <= 0 {
		t.Fatalf("receiver booked %d crashes, %v downtime", crashes, downtime)
	}
	// The donor books nothing for the node after the handover: its only
	// crash source for donor-rack is its one remaining node, whose chain
	// stream is independent; the proof the chain migrated is above.
	if recv.injector.chains[grownID].rng == nil {
		t.Fatal("receiver holds no chain for the grown node")
	}
}

// TestStopAfterGrownNodeCrash is the out-of-bounds regression: crash a
// node that was grown after injector construction (its ID lies past the
// construction-time state), then stop fault injection while it is down.
// The old fixed-size bookkeeping arrays made stop() panic here.
func TestStopAfterGrownNodeCrash(t *testing.T) {
	spec := fault.Spec{NodeMTBF: 2 * time.Hour, NodeRepair: 6 * time.Hour}
	h := faultHarness(t, spec, "retry", 1)
	id := h.pilot.GrowNode(cluster.NodeCapacity{Cores: 8, GPUs: 2, MemGB: 32}, nil)
	clu := h.pilot.Cluster()
	if !stepUntilDown(h.engine, clu, id, simclock.Time(24*365*time.Hour)) {
		t.Fatal("grown node never crashed in a year at MTBF 2h")
	}
	h.pilot.StopFaultInjection() // pre-fix: index out of range on the grown ID
	if clu.NodeIsDown(id) {
		t.Fatal("grown node still down after StopFaultInjection")
	}
	if _, downtime := h.pilot.FaultCounts(); downtime <= 0 {
		t.Fatal("no downtime booked for the grown node's cut-short repair")
	}
	h.engine.Run()
}

// TestMigratedChainKeepsSchedule pins the determinism contract of the
// handover: a transferred node crashes at the same virtual instant it
// would have crashed on the donor — the RNG state and the pending crash
// delay travel with the node.
func TestMigratedChainKeepsSchedule(t *testing.T) {
	spec := fault.Spec{NodeMTBF: 8 * time.Hour, NodeRepair: time.Hour}
	horizon := simclock.Time(24 * 365 * time.Hour)
	donorCaps := []cluster.NodeCapacity{
		{Cores: 8, MemGB: 32},
		{Cores: 8, MemGB: 32},
	}

	// Run A: node 1 stays home; record its first crash instant.
	engineA := simclock.New()
	pmA := NewPilotManager(engineA, trace.NewRecorder(16, 0, 0))
	pA := labeledPilot(t, pmA, "home", donorCaps, spec, 9)
	if !stepUntilDown(engineA, pA.Cluster(), 1, horizon) {
		t.Fatal("node 1 never crashed at home")
	}
	atHome := engineA.Now()
	if atHome <= simclock.Time(30*time.Minute) {
		t.Fatalf("first crash at %v precedes the transfer point", atHome)
	}

	// Run B: the same node is steered away at 30m; its crash must fire at
	// the identical instant on the receiver.
	engineB := simclock.New()
	pmB := NewPilotManager(engineB, trace.NewRecorder(24, 0, 0))
	pB := labeledPilot(t, pmB, "home", donorCaps, spec, 9)
	qB := labeledPilot(t, pmB, "away", []cluster.NodeCapacity{{Cores: 8, MemGB: 32}}, spec, 77)
	grownID := -1
	engineB.After(30*time.Minute, func() {
		nc, ch, err := pB.ShrinkNode(1)
		if err != nil {
			t.Fatal(err)
		}
		grownID = qB.GrowNode(nc, ch)
	})
	for engineB.Now() < horizon && engineB.Step() {
		if grownID >= 0 && qB.Cluster().NodeIsDown(grownID) {
			break
		}
	}
	if grownID < 0 || !qB.Cluster().NodeIsDown(grownID) {
		t.Fatal("transferred node never crashed on the receiver")
	}
	if away := engineB.Now(); away != atHome {
		t.Fatalf("crash instant moved across the transfer: %v at home, %v away", atHome, away)
	}
}

// TestRandomizedChainInvariants drives two fault-enabled pilots through
// random node transfers and asserts, at every event, the chain-coverage
// invariants the migration must never break: every owned node carries
// exactly one live chain, removed nodes carry none, and — across the
// whole run — the downtime the injectors book equals the downtime
// actually observed on the clusters, conserved across donor and
// receiver.
func TestRandomizedChainInvariants(t *testing.T) {
	for trial := int64(0); trial < 3; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			runChainInvariantTrial(t, trial)
		})
	}
}

func runChainInvariantTrial(t *testing.T, trial int64) {
	rng := rand.New(rand.NewSource(trial*424243 + 1))
	spec := fault.Spec{NodeMTBF: 3 * time.Hour, NodeRepair: 20 * time.Minute}
	engine := simclock.New()
	pm := NewPilotManager(engine, trace.NewRecorder(40, 4, 0))
	mkCaps := func(n, gpus int, dom string) []cluster.NodeCapacity {
		caps := make([]cluster.NodeCapacity, n)
		for i := range caps {
			caps[i] = cluster.NodeCapacity{Cores: 8, GPUs: gpus, MemGB: 32, Domain: dom}
		}
		return caps
	}
	pa := labeledPilot(t, pm, "pa", mkCaps(3, 0, "a"), spec, uint64(trial*5+1))
	pb := labeledPilot(t, pm, "pb", mkCaps(2, 2, "b"), spec, uint64(trial*5+2))
	pilots := []*Pilot{pa, pb}

	for i := 0; i < 30; i++ {
		at := time.Duration(rng.Intn(24*18)) * time.Hour
		dir := rng.Intn(2)
		engine.After(at, func() {
			from, to := pilots[dir], pilots[1-dir]
			ids := from.Cluster().TransferableNodes()
			if len(ids) == 0 || from.Cluster().UpNodeCount() <= 1 {
				return
			}
			nc, ch, err := from.ShrinkNode(ids[rng.Intn(len(ids))])
			if err != nil {
				t.Fatalf("shrink of transferable node failed: %v", err)
			}
			to.GrowNode(nc, ch)
		})
	}

	horizon := simclock.Time(24 * 20 * time.Hour)
	downSince := map[*Pilot]map[int]simclock.Time{pa: {}, pb: {}}
	var expected time.Duration
	transitions := 0
	observe := func() {
		for _, p := range pilots {
			clu := p.Cluster()
			cur := make(map[int]bool)
			for _, id := range clu.DownNodes() {
				cur[id] = true
				if _, known := downSince[p][id]; !known {
					downSince[p][id] = engine.Now()
					transitions++
				}
			}
			for id, since := range downSince[p] {
				if !cur[id] {
					expected += engine.Now().Sub(since)
					delete(downSince[p], id)
				}
			}
			if !p.injector.started {
				continue
			}
			for id := 0; id < clu.NodeCount(); id++ {
				chains := p.injector.chains
				if clu.NodeIsRemoved(id) {
					if id < len(chains) && chains[id].rng != nil {
						t.Fatalf("%s node %d removed but still carries a chain at %v", p.ID, id, engine.Now())
					}
					continue
				}
				if id >= len(chains) || chains[id].rng == nil {
					t.Fatalf("%s node %d owned but has no chain at %v", p.ID, id, engine.Now())
				}
				if !chains[id].ev.Pending() && !chains[id].hasPending {
					t.Fatalf("%s node %d chain has no pending event at %v", p.ID, id, engine.Now())
				}
			}
		}
	}
	for engine.Now() < horizon && engine.Step() {
		observe()
	}
	stopAt := engine.Now()
	for _, p := range pilots {
		for _, since := range downSince[p] {
			expected += stopAt.Sub(since)
		}
	}
	pa.StopFaultInjection()
	pb.StopFaultInjection()
	engine.Run()

	ca, da := pa.FaultCounts()
	cb, db := pb.FaultCounts()
	if ca+cb != transitions {
		t.Fatalf("injectors booked %d crashes, observed %d down transitions", ca+cb, transitions)
	}
	if got := da + db; got != expected {
		t.Fatalf("downtime not conserved: injectors booked %v, observed %v", got, expected)
	}
}

// TestDomainOutageTakesDomainDown: the outage model takes every node of
// a failure domain down together — never a partial rack — and unlabeled
// nodes are exempt.
func TestDomainOutageTakesDomainDown(t *testing.T) {
	spec := fault.Spec{Domains: fault.DomainSpec{OutageMTBF: 12 * time.Hour, OutageDuration: time.Hour}}
	engine := simclock.New()
	pm := NewPilotManager(engine, trace.NewRecorder(40, 0, 0))
	caps := []cluster.NodeCapacity{
		{Cores: 8, MemGB: 32, Domain: "r1"},
		{Cores: 8, MemGB: 32, Domain: "r1"},
		{Cores: 8, MemGB: 32, Domain: "r2"},
		{Cores: 8, MemGB: 32, Domain: "r2"},
		{Cores: 8, MemGB: 32}, // unlabeled: exempt from outages
	}
	p := labeledPilot(t, pm, "rack", caps, spec, 5)
	clu := p.Cluster()
	domain := func(id int) string { return caps[id].Domain }

	sawDown := false
	horizon := simclock.Time(24 * 30 * time.Hour)
	for engine.Now() < horizon && engine.Step() {
		down := clu.DownNodes()
		if len(down) == 0 {
			continue
		}
		sawDown = true
		isDown := make(map[int]bool, len(down))
		for _, id := range down {
			isDown[id] = true
		}
		for _, id := range down {
			if domain(id) == "" {
				t.Fatalf("unlabeled node %d hit by a domain outage at %v", id, engine.Now())
			}
			for other := range caps {
				if domain(other) == domain(id) && !isDown[other] {
					t.Fatalf("partial outage of %s at %v: node %d down, node %d up",
						domain(id), engine.Now(), id, other)
				}
			}
		}
	}
	if !sawDown {
		t.Fatal("no domain outage in a month at outage MTBF 12h over two domains")
	}
	p.StopFaultInjection()
	engine.Run()

	outages, maints := p.DomainEventCounts()
	if outages == 0 || maints != 0 {
		t.Fatalf("DomainEventCounts = (%d, %d), want outages > 0 and no maintenance", outages, maints)
	}
	byDomain := p.FaultCountsByDomain()
	if byDomain[""] != 0 {
		t.Fatalf("unlabeled nodes booked %d outage crashes", byDomain[""])
	}
	crashes, downtime := p.FaultCounts()
	if sum := byDomain["r1"] + byDomain["r2"]; sum != crashes || crashes == 0 {
		t.Fatalf("crashes %d, by domain %v", crashes, byDomain)
	}
	if downtime <= 0 || downtime > time.Duration(crashes)*time.Hour {
		t.Fatalf("downtime %v outside (0, crashes×1h] for %d node-downs", downtime, crashes)
	}
}

// TestMaintenanceWindowIsPlannedDowntime: a maintenance window takes its
// domain down for exactly its duration, books the downtime, and counts
// as maintenance — not as crashes.
func TestMaintenanceWindowIsPlannedDowntime(t *testing.T) {
	spec := fault.Spec{Domains: fault.DomainSpec{Maintenance: []fault.Maintenance{
		{Domain: "m1", Start: 2 * time.Hour, Duration: time.Hour},
	}}}
	engine := simclock.New()
	pm := NewPilotManager(engine, trace.NewRecorder(24, 0, 0))
	caps := []cluster.NodeCapacity{
		{Cores: 8, MemGB: 32, Domain: "m1"},
		{Cores: 8, MemGB: 32, Domain: "m1"},
		{Cores: 8, MemGB: 32},
	}
	p := labeledPilot(t, pm, "maint", caps, spec, 6)
	clu := p.Cluster()

	var openedAt, closedAt simclock.Time
	horizon := simclock.Time(24 * time.Hour)
	for engine.Now() < horizon && engine.Step() {
		down := len(clu.DownNodes())
		switch {
		case openedAt == 0 && down > 0:
			openedAt = engine.Now()
			if down != 2 || !clu.NodeIsDown(0) || !clu.NodeIsDown(1) || clu.NodeIsDown(2) {
				t.Fatalf("window took down %d nodes (unlabeled down: %v)", down, clu.NodeIsDown(2))
			}
		case openedAt != 0 && closedAt == 0 && down == 0:
			closedAt = engine.Now()
		}
	}
	if openedAt == 0 || closedAt == 0 {
		t.Fatalf("window never opened/closed (open %v, close %v)", openedAt, closedAt)
	}
	if got := closedAt.Sub(openedAt); got != time.Hour {
		t.Fatalf("window lasted %v, want 1h", got)
	}
	p.StopFaultInjection()
	engine.Run()

	crashes, downtime := p.FaultCounts()
	if crashes != 0 {
		t.Fatalf("planned maintenance booked %d crashes", crashes)
	}
	outages, maints := p.DomainEventCounts()
	if outages != 0 || maints != 1 {
		t.Fatalf("DomainEventCounts = (%d, %d), want one maintenance window", outages, maints)
	}
	if downtime != 2*time.Hour {
		t.Fatalf("downtime %v, want 2h (two nodes × 1h window)", downtime)
	}
}

// TestCascadeAmplifiesCrashes: with the cascade model on, same-domain
// neighbors of a crashed node draw extra hazard, so the crash count
// strictly exceeds the cascade-free run of the same seed.
func TestCascadeAmplifiesCrashes(t *testing.T) {
	run := func(cascade float64) int {
		spec := fault.Spec{NodeMTBF: 12 * time.Hour, NodeRepair: time.Hour}
		spec.Domains.CascadeProb = cascade
		spec.Domains.CascadeWindow = 10 * time.Minute
		engine := simclock.New()
		pm := NewPilotManager(engine, trace.NewRecorder(32, 0, 0))
		caps := make([]cluster.NodeCapacity, 4)
		for i := range caps {
			caps[i] = cluster.NodeCapacity{Cores: 8, MemGB: 32, Domain: "r"}
		}
		p := labeledPilot(t, pm, "cascade", caps, spec, 8)
		engine.RunUntil(simclock.Time(24 * 60 * time.Hour))
		p.StopFaultInjection()
		engine.Run()
		crashes, _ := p.FaultCounts()
		return crashes
	}
	base, amplified := run(0), run(0.9)
	if base == 0 {
		t.Fatal("no crashes in two months at MTBF 12h")
	}
	if amplified <= base {
		t.Fatalf("cascade did not amplify crashes: %d with, %d without", amplified, base)
	}
}

// TestDomainArrivalViaTransfer: a transferred-in node whose domain label
// is new to the receiver arms the receiver's outage schedule for that
// domain — correlated failures follow the hardware.
func TestDomainArrivalViaTransfer(t *testing.T) {
	spec := fault.Spec{NodeMTBF: 200 * time.Hour, NodeRepair: 30 * time.Minute,
		Domains: fault.DomainSpec{OutageMTBF: 24 * time.Hour, OutageDuration: time.Hour}}
	engine := simclock.New()
	pm := NewPilotManager(engine, trace.NewRecorder(32, 0, 0))
	donor := labeledPilot(t, pm, "donor", []cluster.NodeCapacity{
		{Cores: 8, MemGB: 32, Domain: "mobile"},
		{Cores: 8, MemGB: 32, Domain: "mobile"},
	}, spec, 21)
	recv := labeledPilot(t, pm, "recv", []cluster.NodeCapacity{
		{Cores: 8, MemGB: 32, Domain: "fixed"},
	}, spec, 22)
	engine.After(time.Hour, func() {
		ids := donor.Cluster().TransferableNodes()
		nc, ch, err := donor.ShrinkNode(ids[0])
		if err != nil {
			t.Fatal(err)
		}
		recv.GrowNode(nc, ch)
	})
	engine.RunUntil(simclock.Time(24 * 60 * time.Hour))
	donor.StopFaultInjection()
	recv.StopFaultInjection()
	engine.Run()
	if got := recv.FaultCountsByDomain(); got["mobile"] == 0 {
		t.Fatalf("receiver never saw a 'mobile' domain event in two months (counts: %v)", got)
	}
}
