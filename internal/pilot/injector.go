package pilot

import (
	"fmt"
	"sort"
	"time"

	"impress/internal/fault"
	"impress/internal/simclock"
	"impress/internal/trace"
	"impress/internal/xrand"
)

// injector drives a pilot's failure models (internal/fault) on the
// virtual timeline. It exists only when the pilot's fault spec enables a
// model, so the zero-fault runtime carries no injector, consumes no
// random stream, and schedules no event — the configuration the golden
// traces prove bit-identical to the pre-fault runtime.
//
// Determinism: every stream derives from the pilot seed. Task faults are
// pure functions of the attempt seed (no injector state); node crashes
// draw from one dedicated RNG per node, advanced only by that node's
// crash chain, so crash timelines are independent of workload and of
// each other. Domain outages draw from one RNG per failure-domain label,
// derived from the label itself, so a domain's outage schedule does not
// depend on which nodes happen to populate it.
//
// Ownership: a node's crash chain belongs to the pilot that owns the
// hardware. An elastic transfer detaches the chain from the donor's
// injector (detach) and hands it — RNG state and pending crash delay —
// to the receiver's (adopt), so transferred nodes keep crashing on their
// original schedule and the receiving pilot books the crashes and
// downtime. Per-node state lives in a slice that grows with the cluster,
// so grown node IDs never index out of bounds.
type injector struct {
	pilot *Pilot
	spec  fault.Spec

	chains    []nodeChain // per node-ID slot; grows with the cluster
	wallEvent simclock.Event

	domains      []*domainState // outage machinery per failure-domain label
	maintEvents  []simclock.Event
	maintVictims [][]int // node IDs each open window took down

	crashes         int
	crashesByDomain map[string]int
	outages         int
	maintenances    int
	downtime        time.Duration // actual elapsed node downtime (booked at up-transition)
	started         bool
	stopped         bool
}

// downCause records what took a node down, so the matching up-transition
// (repair, outage end, window close, injector stop) books its downtime
// exactly once.
type downCause uint8

const (
	causeNone   downCause = iota
	causeCrash            // individual MTBF crash or cascade; repair event pending
	causeOutage           // whole-domain outage; the outage's restore brings it up
	causeMaint            // maintenance window; the window close brings it up
)

// nodeChain is one node's slot of injector state. rng is nil when the
// slot carries no individual crash chain (MTBF model off, or the node
// was transferred away — the slot stays behind as a tombstone, exactly
// like the cluster's).
type nodeChain struct {
	rng *xrand.RNG
	ev  simclock.Event // pending crash or repair event

	// pendingNext carries an adopted chain's remaining crash delay until
	// the chain can be armed (pilot not yet active).
	pendingNext time.Duration
	hasPending  bool

	downAt simclock.Time // valid while the node is down
	cause  downCause
}

// domainState is the outage machinery of one failure-domain label.
type domainState struct {
	name    string
	rng     *xrand.RNG
	ev      simclock.Event // pending outage start or restore
	victims []int          // node IDs the current outage took down
}

func newInjector(p *Pilot, spec fault.Spec) *injector {
	in := &injector{pilot: p, spec: spec}
	n := p.agent.cluster.NodeCount()
	if spec.NodeMTBF > 0 {
		in.chains = make([]nodeChain, n)
		for i := 0; i < n; i++ {
			in.chains[i].rng = xrand.New(xrand.Derive(p.desc.Seed, fmt.Sprintf("fault:node:%d", i)))
		}
	} else if spec.Domains.Enabled() {
		// Domain models need down bookkeeping even without per-node
		// chains.
		in.chains = make([]nodeChain, n)
	}
	return in
}

// slot returns node id's chain state, growing the per-node slice when a
// grown node's ID lies past it — the injector's state tracks the
// cluster's, so transferred-in hardware can crash and stop() never
// indexes out of bounds.
func (in *injector) slot(id int) *nodeChain {
	for id >= len(in.chains) {
		in.chains = append(in.chains, nodeChain{})
	}
	return &in.chains[id]
}

// start arms the standing failure models at pilot activation: one crash
// chain per node, the domain outage schedules, the maintenance windows,
// and the fault-model walltime. Per-task faults need no arming — the
// executor consults the spec per attempt.
func (in *injector) start() {
	in.started = true
	for i := range in.chains {
		if in.chains[i].rng != nil {
			in.armChain(i)
		}
	}
	if in.spec.Domains.OutageMTBF > 0 {
		clu := in.pilot.agent.cluster
		labels := make([]string, 0, 4)
		seen := make(map[string]bool, 4)
		for i := 0; i < clu.NodeCount(); i++ {
			if d := clu.NodeDomain(i); d != "" && !seen[d] {
				seen[d] = true
				labels = append(labels, d)
			}
		}
		sort.Strings(labels)
		for _, d := range labels {
			in.ensureDomain(d)
		}
	}
	for idx, m := range in.spec.Domains.Maintenance {
		in.maintEvents = append(in.maintEvents, simclock.Event{})
		in.maintVictims = append(in.maintVictims, nil)
		in.scheduleMaintOpen(idx, m, m.Start)
	}
	if in.spec.Walltime > 0 {
		in.wallEvent = in.pilot.engine.After(in.spec.Walltime, func() {
			in.pilot.expireOrDrain()
		})
	}
}

// stop retires the injector: all pending events are cancelled and any
// node still down — mid-repair, mid-outage, or mid-window — comes back
// up so queued work can drain. Without this, the self-rescheduling crash
// chains would keep the discrete-event engine alive forever.
func (in *injector) stop() {
	if in.stopped {
		return
	}
	in.stopped = true
	engine := in.pilot.engine
	for i := range in.chains {
		engine.Cancel(in.chains[i].ev)
		in.chains[i].ev = simclock.Event{}
	}
	for _, d := range in.domains {
		engine.Cancel(d.ev)
		d.ev = simclock.Event{}
	}
	for i, ev := range in.maintEvents {
		engine.Cancel(ev)
		in.maintEvents[i] = simclock.Event{}
	}
	engine.Cancel(in.wallEvent)
	clu := in.pilot.agent.cluster
	repaired := false
	for _, id := range clu.DownNodes() {
		// Book only the downtime that actually elapsed: the repair
		// window (or outage) is cut short by the stop.
		s := in.slot(id)
		in.downtime += engine.Now().Sub(s.downAt)
		s.cause = causeNone
		clu.SetNodeUp(id)
		repaired = true
	}
	if repaired && in.pilot.state == PilotActive {
		in.pilot.agent.schedule()
	}
}

// taskFault consults the per-task failure model for one attempt.
func (in *injector) taskFault(t *Task, total time.Duration) (at time.Duration, ok bool) {
	return in.spec.TaskFault(t.seed, t.Description.Name, t.Description.GPUs > 0, total)
}

// detach removes node id's crash chain from this injector and returns it
// for the receiving pilot — the fault half of an elastic transfer out.
// The pending crash event is cancelled and its remaining delay travels
// with the chain, so the crash fires at the same virtual instant on the
// receiver. The slot becomes a tombstone; this pilot draws nothing more
// for the node. Returns nil when the node carries no chain.
func (in *injector) detach(id int) *fault.Chain {
	if id < 0 || id >= len(in.chains) {
		return nil
	}
	s := &in.chains[id]
	if s.rng == nil {
		return nil
	}
	ch := &fault.Chain{RNG: s.rng}
	switch {
	case s.ev.Pending():
		if rem := s.ev.When().Sub(in.pilot.engine.Now()); rem > 0 {
			ch.NextCrash = rem
		}
		in.pilot.engine.Cancel(s.ev)
	case s.hasPending:
		ch.NextCrash = s.pendingNext
	}
	*s = nodeChain{}
	return ch
}

// adopt installs the fault state for a transferred-in node — the fault
// half of an elastic transfer in. A migrated chain keeps its RNG stream
// and fires its pending crash on schedule; a node arriving without one
// (the donor ran no crash model) gets a fresh deterministic chain
// derived from this pilot's seed and the node's ID. Pilots without the
// MTBF model drop the chain: their failure models simply do not include
// node crashes. The node's domain label joins the outage schedule either
// way.
func (in *injector) adopt(id int, ch *fault.Chain) {
	s := in.slot(id)
	if in.stopped {
		return
	}
	if in.spec.NodeMTBF > 0 {
		if ch != nil && ch.RNG != nil {
			s.rng = ch.RNG
			s.pendingNext = ch.NextCrash
			s.hasPending = ch.NextCrash > 0
		} else {
			s.rng = xrand.New(xrand.Derive(in.pilot.desc.Seed, fmt.Sprintf("fault:node:%d", id)))
			s.hasPending = false
		}
		if in.started && in.pilot.state == PilotActive {
			in.armChain(id)
		}
	}
	if in.spec.Domains.OutageMTBF > 0 {
		if d := in.pilot.agent.cluster.NodeDomain(id); d != "" {
			in.ensureDomain(d)
		}
	}
}

// armChain schedules node i's next crash: the delay an adopted chain
// carried over, or a fresh draw from the node's stream.
func (in *injector) armChain(i int) {
	s := &in.chains[i]
	if s.hasPending {
		d := s.pendingNext
		s.hasPending = false
		s.ev = in.pilot.engine.After(d, func() {
			in.crash(i)
		})
		return
	}
	in.scheduleCrash(i)
}

// scheduleCrash arms node i's next crash from its own MTBF stream.
func (in *injector) scheduleCrash(i int) {
	d := fault.CrashDelay(in.chains[i].rng, in.spec.NodeMTBF)
	in.chains[i].ev = in.pilot.engine.After(d, func() {
		in.crash(i)
	})
}

// crash takes node i down: its capacity leaves the ledger first (so the
// kill cascade cannot re-place work onto it), every resident task fails
// with KindNodeCrash, the repair is scheduled, and — with the cascade
// model on — same-domain neighbors draw their hazard.
func (in *injector) crash(i int) {
	if in.stopped || in.pilot.state != PilotActive {
		return
	}
	clu := in.pilot.agent.cluster
	if clu.NodeIsRemoved(i) {
		// The node was steered away and its chain migrated with it; a
		// stale event firing here owns nothing. (Transfers detach the
		// chain, so this is purely defensive.)
		return
	}
	if clu.NodeIsDown(i) {
		// Already down by an outage or maintenance window: the crash is
		// absorbed by the ongoing one; re-arm the chain past it.
		in.scheduleCrash(i)
		return
	}
	in.bookDown(i, causeCrash)
	clu.SetNodeDown(i)
	in.pilot.agent.rec.Instant(in.pilot.engine.Now(), trace.KindNodeCrash, in.pilot.ordinal, i, clu.NodeDomain(i))
	in.pilot.agent.failNode(i)
	repair := in.spec.RepairWindow()
	in.chains[i].ev = in.pilot.engine.After(repair, func() {
		in.repair(i)
	})
	in.cascadeFrom(i)
}

// bookDown records when and why node i went down. Every cause but a
// maintenance window (planned downtime) counts as a crash.
func (in *injector) bookDown(i int, cause downCause) {
	s := in.slot(i)
	s.downAt = in.pilot.engine.Now()
	s.cause = cause
	if cause == causeMaint {
		return
	}
	in.crashes++
	if in.crashesByDomain == nil {
		in.crashesByDomain = make(map[string]int)
	}
	in.crashesByDomain[in.pilot.agent.cluster.NodeDomain(i)]++
}

// cascadeFrom rolls the cascade hazard for every up node sharing the
// crashed node's failure domain: each hit neighbor's pending crash is
// pulled forward into the cascade window. Draws advance the neighbors'
// own chain streams, in node-ID order, so cascades stay deterministic.
func (in *injector) cascadeFrom(i int) {
	if in.spec.Domains.CascadeProb <= 0 {
		return
	}
	clu := in.pilot.agent.cluster
	dom := clu.NodeDomain(i)
	for j := range in.chains {
		s := &in.chains[j]
		if j == i || s.rng == nil || clu.NodeIsRemoved(j) || clu.NodeIsDown(j) || clu.NodeDomain(j) != dom {
			continue
		}
		delay, hit := in.spec.Domains.CascadeDelay(s.rng)
		if !hit {
			continue
		}
		in.pilot.engine.Cancel(s.ev)
		s.ev = in.pilot.engine.After(delay, func() {
			in.crash(j)
		})
	}
}

// repair brings node i back and re-arms its crash chain; freed capacity
// is offered to the queue immediately.
func (in *injector) repair(i int) {
	if in.stopped {
		return
	}
	s := &in.chains[i]
	in.downtime += in.pilot.engine.Now().Sub(s.downAt)
	s.cause = causeNone
	in.pilot.agent.cluster.SetNodeUp(i)
	in.pilot.agent.rec.Instant(in.pilot.engine.Now(), trace.KindNodeRepair, in.pilot.ordinal, i, "")
	if in.pilot.state == PilotActive {
		in.pilot.agent.schedule()
	}
	in.scheduleCrash(i)
}

// ensureDomain arms the outage chain for a failure-domain label the
// pilot owns nodes of. The stream derives from the label, not from
// arrival order, so a domain's schedule is the same whichever transfer
// brought its first node.
func (in *injector) ensureDomain(name string) {
	for _, d := range in.domains {
		if d.name == name {
			return
		}
	}
	d := &domainState{
		name: name,
		rng:  xrand.New(xrand.Derive(in.pilot.desc.Seed, "fault:domain:"+name)),
	}
	in.domains = append(in.domains, d)
	if in.started && !in.stopped {
		in.scheduleOutage(d)
	}
}

// scheduleOutage arms domain d's next whole-domain outage.
func (in *injector) scheduleOutage(d *domainState) {
	delay := fault.CrashDelay(d.rng, in.spec.Domains.OutageMTBF)
	d.ev = in.pilot.engine.After(delay, func() {
		in.outage(d)
	})
}

// outage takes every up node of the domain down together: all capacity
// leaves the ledger first, then the kill cascade runs per node — so no
// victim's work can be re-placed onto a sibling that is about to go down
// in the same burst.
func (in *injector) outage(d *domainState) {
	if in.stopped || in.pilot.state != PilotActive {
		return
	}
	in.outages++
	d.victims = in.takeDown(d.name, causeOutage, d.victims, trace.KindOutage)
	dur := in.spec.Domains.OutageDuration
	if dur <= 0 {
		dur = in.spec.RepairWindow()
	}
	d.ev = in.pilot.engine.After(dur, func() {
		in.restore(d)
	})
}

// restore ends a domain outage: every node the outage took down comes
// back, its downtime is booked, and the next outage is drawn.
func (in *injector) restore(d *domainState) {
	if in.stopped {
		return
	}
	d.victims = in.bringUp(d.name, causeOutage, d.victims, trace.KindRestore)
	in.scheduleOutage(d)
}

// takeDown takes every up node of domain dom down for cause, appending
// them to victims[:0]: all capacity leaves the ledger first, then the
// kill cascade runs per node, so no victim's work can be re-placed onto
// a sibling about to go down in the same burst. The instant kind is
// logged in between; an outage logs it even when it finds no node up,
// a maintenance window only when it takes one of this pilot's nodes.
func (in *injector) takeDown(dom string, cause downCause, victims []int, kind string) []int {
	clu := in.pilot.agent.cluster
	victims = victims[:0]
	for i := 0; i < clu.NodeCount(); i++ {
		if clu.NodeIsRemoved(i) || clu.NodeIsDown(i) || clu.NodeDomain(i) != dom {
			continue
		}
		in.bookDown(i, cause)
		clu.SetNodeDown(i)
		victims = append(victims, i)
	}
	if len(victims) > 0 || cause == causeOutage {
		in.pilot.agent.rec.Instant(in.pilot.engine.Now(), kind, in.pilot.ordinal, -1, dom)
	}
	for _, i := range victims {
		in.pilot.agent.failNode(i)
	}
	return victims
}

// bringUp ends a takeDown: every victim still down for cause comes back
// and its downtime is booked. When one did, the instant kind is logged
// and the freed capacity offered to the queue. It returns victims[:0].
func (in *injector) bringUp(dom string, cause downCause, victims []int, kind string) []int {
	up := false
	for _, i := range victims {
		s := &in.chains[i]
		if s.cause != cause {
			continue
		}
		in.downtime += in.pilot.engine.Now().Sub(s.downAt)
		s.cause = causeNone
		in.pilot.agent.cluster.SetNodeUp(i)
		up = true
	}
	if up {
		in.pilot.agent.rec.Instant(in.pilot.engine.Now(), kind, in.pilot.ordinal, -1, dom)
		if in.pilot.state == PilotActive {
			in.pilot.agent.schedule()
		}
	}
	return victims[:0]
}

// scheduleMaintOpen arms maintenance window idx's next opening.
func (in *injector) scheduleMaintOpen(idx int, m fault.Maintenance, delay time.Duration) {
	in.maintEvents[idx] = in.pilot.engine.After(delay, func() {
		in.maintOpen(idx, m)
	})
}

// maintOpen closes a domain for scheduled maintenance: every up node of
// the window's domain goes down (planned, so not counted as a crash) and
// the window close is scheduled. Nodes already down — crashed or in an
// outage — are left to their own up-transitions. A window is only
// counted when it takes at least one of this pilot's nodes down: every
// injector schedules every declared window, so windows for domains this
// pilot does not host must stay invisible in its statistics.
func (in *injector) maintOpen(idx int, m fault.Maintenance) {
	if in.stopped || in.pilot.state != PilotActive {
		return
	}
	in.maintVictims[idx] = in.takeDown(m.Domain, causeMaint, in.maintVictims[idx], trace.KindMaintOpen)
	if len(in.maintVictims[idx]) > 0 {
		in.maintenances++
	}
	in.maintEvents[idx] = in.pilot.engine.After(m.Duration, func() {
		in.maintClose(idx, m)
	})
}

// maintClose reopens the domain, books the planned downtime, and — for
// periodic windows — arms the next opening.
func (in *injector) maintClose(idx int, m fault.Maintenance) {
	if in.stopped {
		return
	}
	in.maintVictims[idx] = in.bringUp(m.Domain, causeMaint, in.maintVictims[idx], trace.KindMaintClose)
	if m.Every > 0 {
		// The next opening is Every after the previous one; the close ran
		// Duration in.
		in.scheduleMaintOpen(idx, m, m.Every-m.Duration)
	}
}
