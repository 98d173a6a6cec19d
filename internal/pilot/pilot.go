package pilot

import (
	"errors"
	"fmt"
	"time"

	"impress/internal/cluster"
	"impress/internal/costmodel"
	"impress/internal/fault"
	"impress/internal/preempt"
	"impress/internal/sched"
	"impress/internal/simclock"
	"impress/internal/steer"
	"impress/internal/telemetry"
	"impress/internal/trace"
)

// PilotState is the lifecycle of a pilot job.
type PilotState int

const (
	// PilotLaunching covers batch-queue wait plus agent bootstrap (the
	// "Bootstrap" band of Fig. 5).
	PilotLaunching PilotState = iota
	// PilotActive means the agent schedules and executes tasks.
	PilotActive
	// PilotDone means the pilot's fault-model walltime expired, at the
	// deadline or when its graceful drain window closed; the tasks it
	// still held failed with fault.KindWalltime.
	PilotDone
)

func (s PilotState) String() string {
	switch s {
	case PilotLaunching:
		return "LAUNCHING"
	case PilotActive:
		return "ACTIVE"
	case PilotDone:
		return "DONE"
	default:
		return fmt.Sprintf("PilotState(%d)", int(s))
	}
}

// PilotDescription declares the resource request for one pilot.
type PilotDescription struct {
	// Machine is the resource to acquire.
	Machine cluster.Spec
	// Nodes, when non-empty, gives every node an explicit (possibly
	// heterogeneous) capacity — a generated fleet. Machine.Nodes must
	// equal len(Nodes). Empty acquires the homogeneous partition Machine
	// describes.
	Nodes []cluster.NodeCapacity
	// Cost supplies runtime overhead models (bootstrap, exec setup).
	Cost costmodel.Params
	// Policy names the agent's scheduling policy (internal/sched): fifo,
	// backfill, bestfit, worstfit, largest. Empty means strict fifo;
	// "backfill" lets later queued tasks start when the queue head does
	// not fit — the mechanism that lets IM-RP "offload newly created
	// pipelines to idle resources".
	Policy string
	// Fault declares the pilot's failure models (internal/fault). The
	// zero value injects nothing and is bit-identical to a runtime
	// without the fault subsystem. Fault.Walltime is the only bound on
	// the pilot's lifetime.
	Fault fault.Spec
	// Recovery names the fault-recovery policy (internal/fault): none,
	// retry, backoff, elsewhere. Empty means "none" — failures surface.
	Recovery string
	// Steer names the pilot's elastic-steering participation
	// (internal/steer): "none" freezes the pilot's partition (it neither
	// donates nor receives nodes), any steering policy name opts it into
	// the campaign's node transfers. Empty means "none" — the pilot
	// behaves exactly like the pre-steering runtime.
	Steer string
	// CheckpointInterval enables lazy checkpointing: a running attempt's
	// progress counts as durably saved at every multiple of this virtual
	// interval, so an evicted or fault-killed attempt resumes from its
	// last checkpoint instead of from zero. Zero disables checkpointing
	// entirely — no events, no random draws, bit-identical to the
	// pre-preemption runtime.
	CheckpointInterval time.Duration
	// WalltimeGrace turns fault-model walltime expiry (Fault.Walltime)
	// into a graceful drain: instead of failing everything at expiry, the
	// pilot stops placing work, checkpoints and requeues whatever cannot
	// finish within the grace window, lets the rest run to completion,
	// and ends when the window closes. Zero keeps the hard
	// kill-everything expiry.
	WalltimeGrace time.Duration
	// Seed derives all task jitter streams for this pilot.
	Seed uint64
}

// PilotManager launches pilots, following RP's architecture where the
// pilot manager owns resource acquisition and hands an agent to the task
// layer.
type PilotManager struct {
	engine *simclock.Engine
	rec    *trace.Recorder
	tel    *telemetry.Recorder
	nextID int
}

// NewPilotManager creates a pilot manager bound to an engine and a trace
// recorder. The recorder may be nil when no accounting is wanted.
func NewPilotManager(engine *simclock.Engine, rec *trace.Recorder) *PilotManager {
	if engine == nil {
		panic("pilot: nil engine")
	}
	return &PilotManager{engine: engine, rec: rec}
}

// SetTelemetry attaches the campaign's telemetry recorder. Pilots
// submitted afterwards thread it through their agent and fault injector.
// A nil recorder (the default) disables the whole layer.
func (pm *PilotManager) SetTelemetry(tel *telemetry.Recorder) { pm.tel = tel }

// Submit launches a pilot. The pilot becomes active after the bootstrap
// delay; tasks submitted earlier queue in the agent.
func (pm *PilotManager) Submit(pd PilotDescription) (*Pilot, error) {
	if err := pd.Machine.Validate(); err != nil {
		return nil, err
	}
	if err := pd.Cost.Validate(); err != nil {
		return nil, err
	}
	pol, err := sched.New(pd.Policy)
	if err != nil {
		return nil, err
	}
	if err := pd.Fault.Validate(); err != nil {
		return nil, err
	}
	recName := pd.Recovery
	if recName == "" {
		recName = fault.Default()
	}
	rec, err := fault.New(recName)
	if err != nil {
		return nil, err
	}
	steerName := pd.Steer
	if steerName == "" {
		steerName = steer.Default()
	}
	if err := steer.Validate(steerName); err != nil {
		return nil, err
	}
	var clu *cluster.Cluster
	if len(pd.Nodes) > 0 {
		clu, err = cluster.NewWithNodes(pd.Machine, pd.Nodes)
	} else {
		clu, err = cluster.New(pd.Machine)
	}
	if err != nil {
		return nil, err
	}
	pm.nextID++
	p := &Pilot{
		ID:       fmt.Sprintf("pilot.%04d", pm.nextID),
		ordinal:  pm.nextID - 1,
		desc:     pd,
		engine:   pm.engine,
		state:    PilotLaunching,
		recovery: rec,
		steer:    steerName,
		tel:      pm.tel,
	}
	p.agent = newAgent(p, clu, pm.rec, pol)
	if pd.Fault.Enabled() {
		p.injector = newInjector(p, pd.Fault)
	}

	boot := pd.Cost.BootstrapTime
	if pm.rec != nil {
		pm.rec.AddPhase(trace.PhaseBootstrap, boot)
	}
	pm.engine.AfterNamed(boot, p.ID+":bootstrap", func() {
		if p.state != PilotLaunching {
			return
		}
		p.state = PilotActive
		p.activeAt = pm.engine.Now()
		if p.injector != nil {
			p.injector.start()
		}
		p.agent.schedule()
	})
	return p, nil
}

// Pilot is a live pilot job: a resource allocation plus the agent running
// on it.
type Pilot struct {
	ID string
	// ordinal is the zero-based launch index — the pilot's row in the
	// trace recorder's queue series and the telemetry track layout.
	ordinal int
	desc    PilotDescription
	engine  *simclock.Engine
	agent   *agent

	state    PilotState
	activeAt simclock.Time
	// draining marks the graceful walltime window: the pilot still runs
	// work that fits before expiry but places nothing new and is skipped
	// by routing and steering.
	draining bool

	recovery fault.Policy
	steer    string
	injector *injector
	// tel is the campaign's telemetry recorder; nil (the default)
	// disables instant events and gauges for this pilot.
	tel *telemetry.Recorder
}

// Ordinal returns the pilot's zero-based launch index.
func (p *Pilot) Ordinal() int { return p.ordinal }

// State returns the pilot lifecycle state.
func (p *Pilot) State() PilotState { return p.state }

// ActiveAt returns when the pilot became active (zero until then).
func (p *Pilot) ActiveAt() simclock.Time { return p.activeAt }

// Description returns the pilot's submitted description.
func (p *Pilot) Description() PilotDescription { return p.desc }

// Policy returns the resolved name of the agent's scheduling policy.
func (p *Pilot) Policy() string { return p.agent.policy.Name() }

// Recovery returns the resolved name of the pilot's fault-recovery
// policy ("none" when unset).
func (p *Pilot) Recovery() string { return p.recovery.Name() }

// Steer returns the resolved name of the pilot's elastic-steering
// participation ("none" when unset: the partition is frozen).
func (p *Pilot) Steer() string { return p.steer }

// Active reports whether the pilot currently schedules tasks. A pilot
// draining toward walltime expiry is not active: it finishes what fits
// but places nothing new.
func (p *Pilot) Active() bool { return p.state == PilotActive && !p.draining }

// Draining reports whether the pilot is inside its graceful walltime
// drain window.
func (p *Pilot) Draining() bool { return p.draining }

// PilotID returns the pilot's ID — the steering layer's handle for
// routing resumed work to a transfer's receiver.
func (p *Pilot) PilotID() string { return p.ID }

// unavailable reports whether the pilot can no longer host new or
// resubmitted work.
func (p *Pilot) unavailable() bool { return p.state == PilotDone || p.draining }

// QueueLen returns the number of tasks waiting in the agent queue — the
// queue-pressure signal the steering layer watches.
func (p *Pilot) QueueLen() int { return p.agent.QueueLen() }

// RunningCount returns the number of placed (setup or executing) tasks.
func (p *Pilot) RunningCount() int { return len(p.agent.running) }

// QueuedRequests returns the allocation requests of the queued tasks in
// submission order — what the steering controller matches donor node
// shapes against.
func (p *Pilot) QueuedRequests() []cluster.Request {
	queue := p.agent.mergedQueue()
	out := make([]cluster.Request, len(queue))
	for i, e := range queue {
		out[i] = requestOf(e.task)
	}
	return out
}

// GrowNode transfers a node of the given capacity into the pilot's
// ledger (an elastic steering transfer in) and returns its node ID. The
// new capacity is offered to the queue immediately, with the same
// freed-watermark discipline as a release or a node repair. ch is the
// crash chain the donor's ShrinkNode detached (nil when the donor ran no
// crash model): a fault-enabled pilot adopts it — or arms a fresh
// deterministic chain — so steered-in hardware keeps failing; a pilot
// without the node-crash model drops it. The campaign recorder's
// capacity follows the grant.
func (p *Pilot) GrowNode(nc cluster.NodeCapacity, ch *fault.Chain) int {
	id := p.agent.cluster.AddNode(nc)
	if p.agent.rec != nil {
		p.agent.rec.Resize(nc.Cores, nc.GPUs)
	}
	if p.injector != nil {
		p.injector.adopt(id, ch)
	}
	if p.state == PilotActive {
		p.agent.schedule()
	}
	return id
}

// ShrinkNode transfers the identified node out of the pilot's ledger (an
// elastic steering transfer out), returning its capacity and its crash
// chain for the receiving pilot's GrowNode. Only idle nodes shrink: a
// node that is down or carries in-flight allocations is refused, so —
// unlike cancel and fault, which must unwind busy counters and
// allocations exactly — a shrink never has anything to unwind. That
// asymmetry is deliberate: steering moves capacity, never work. The
// chain travels with the node: this pilot's injector stops drawing for
// it the moment the transfer succeeds (nil chain without a crash model).
func (p *Pilot) ShrinkNode(id int) (cluster.NodeCapacity, *fault.Chain, error) {
	nc, err := p.agent.cluster.RemoveNode(id)
	if err != nil {
		return nc, nil, err
	}
	if p.agent.rec != nil {
		p.agent.rec.Resize(-nc.Cores, -nc.GPUs)
	}
	var ch *fault.Chain
	if p.injector != nil {
		ch = p.injector.detach(id)
	}
	return nc, ch, nil
}

// EvictTask checkpoints and evicts one attempt: the task unwinds exactly
// like a fault-killed attempt (ledger, busy counters, pending events)
// but is requeued with its checkpointed progress, resuming on resumeOn
// when given (empty keeps the original routing). Eviction bypasses the
// recovery policy — it is a scheduling decision, not a failure — and
// never ends an attempt chain. Terminal tasks are unaffected.
func (p *Pilot) EvictTask(t *Task, resumeOn, reason string) {
	if t == nil || t.state.Final() || t.pilot != p {
		return
	}
	p.agent.evict(t, resumeOn, reason)
}

// EvictNode drains a busy node for an elastic transfer out — the
// preemptive counterpart of ShrinkNode. Resident attempts are
// checkpointed and evicted (requeued to resume on resumeOn when given),
// then the emptied node is removed from the ledger with its crash chain
// detached, exactly like ShrinkNode. The node is withdrawn from
// scheduling for the duration of the eviction cascade so the unwind
// cannot re-place work onto hardware that is leaving.
func (p *Pilot) EvictNode(id int, resumeOn string) (cluster.NodeCapacity, *fault.Chain, error) {
	clu := p.agent.cluster
	if id < 0 || id >= clu.NodeCount() {
		return cluster.NodeCapacity{}, nil, fmt.Errorf("pilot: node %d outside %s ledger", id, p.ID)
	}
	if clu.NodeIsRemoved(id) {
		return cluster.NodeCapacity{}, nil, fmt.Errorf("pilot: node %d already transferred out of %s", id, p.ID)
	}
	if clu.NodeIsDown(id) {
		return cluster.NodeCapacity{}, nil, fmt.Errorf("pilot: node %d is down; cannot evict a crashed node", id)
	}
	clu.SetNodeDown(id)
	p.agent.evictNode(id, resumeOn, fmt.Sprintf("node %d preempted for transfer", id))
	clu.SetNodeUp(id)
	return p.ShrinkNode(id)
}

// FaultCounts reports the fault injector's activity: node crashes fired
// and total node downtime injected, booked against the nodes this pilot
// owned at the time (transferred nodes book on their receiver). Zero
// without fault injection.
func (p *Pilot) FaultCounts() (crashes int, downtime time.Duration) {
	if p.injector == nil {
		return 0, 0
	}
	return p.injector.crashes, p.injector.downtime
}

// FaultCountsByDomain returns the pilot's node crashes grouped by
// failure-domain label ("" for unlabeled nodes); nil without any.
func (p *Pilot) FaultCountsByDomain() map[string]int {
	if p.injector == nil || len(p.injector.crashesByDomain) == 0 {
		return nil
	}
	out := make(map[string]int, len(p.injector.crashesByDomain))
	for d, n := range p.injector.crashesByDomain {
		out[d] = n
	}
	return out
}

// DomainEventCounts reports the injector's correlated-failure activity:
// whole-domain outages fired and maintenance windows opened.
func (p *Pilot) DomainEventCounts() (outages, maintenances int) {
	if p.injector == nil {
		return 0, 0
	}
	return p.injector.outages, p.injector.maintenances
}

// StopFaultInjection retires the pilot's fault injector: pending crash,
// repair, and walltime events are cancelled and any still-down nodes are
// repaired so queued work can drain. The campaign coordinator calls this
// once all pipelines have concluded — otherwise the injector's
// self-rescheduling crash chain would keep the event loop alive forever.
func (p *Pilot) StopFaultInjection() {
	if p.injector != nil {
		p.injector.stop()
	}
}

// Cluster exposes the pilot's resource ledger (read-mostly; used by
// adaptive clients to inspect idle capacity during decision-making).
func (p *Pilot) Cluster() *cluster.Cluster { return p.agent.cluster }

// expire is the fault-model walltime: the pilot ends, and its victims
// fail with fault.KindWalltime so recovery policies may resubmit them on
// a surviving pilot.
func (p *Pilot) expire() {
	if p.state == PilotDone {
		return
	}
	p.state = PilotDone
	if p.injector != nil {
		p.injector.stop()
	}
	p.agent.failAll(fault.KindWalltime, "pilot walltime expired")
}

// expireOrDrain is what fault-model walltime expiry actually invokes:
// with no grace window it is the hard kill-everything expire; with one
// it opens the graceful drain instead.
func (p *Pilot) expireOrDrain() {
	if g := p.desc.WalltimeGrace; g > 0 {
		p.drainWalltime(g)
		return
	}
	p.expire()
}

// drainWalltime opens the graceful walltime window: the pilot stops
// placing new work, queued tasks and running work that cannot complete
// within the grace window are checkpointed and evicted to surviving
// pilots, work that fits keeps running, and the pilot expires for good
// when the window closes.
func (p *Pilot) drainWalltime(grace time.Duration) {
	if p.state != PilotActive || p.draining {
		return
	}
	p.draining = true
	p.agent.drainAll(grace)
	p.engine.AfterNamed(grace, p.ID+":walltime-drain", func() { p.expire() })
}

// TaskManager accepts task submissions and routes them to pilot agents,
// reporting every state transition to registered callbacks — the "Submit
// & Monitor Continuously" channel pair of the paper's Fig. 1. Like RP's
// TaskManager, it can serve several pilots at once: tasks carry an
// optional target pilot ID, and untargeted tasks go to the first pilot
// whose resource ledger could ever fit them.
type TaskManager struct {
	engine  *simclock.Engine
	pilots  []*Pilot
	nextUID uint64
	// tasks holds every attempt ever submitted, indexed by UID−1: UIDs
	// are dense because nextUID++ is their only source.
	tasks     []taskSlot
	callbacks []func(*Task, TaskState)

	// Fault-recovery tallies. They are pure accounting: recording them
	// never changes scheduling behaviour, so they run unconditionally.
	faultsByKind [fault.KindCount]int
	resubmitted  int
	terminal     int
	resumes      int
	attemptHist  map[int]int

	// reroute, when set, picks the pilot for a resubmission whose
	// original pilot is gone; the coordinator installs its
	// resource-class-aware routing here. Without one, resubmission falls
	// back to the first live pilot whose node shape fits.
	reroute func(td TaskDescription) (*Pilot, bool)
}

// taskSlot is one attempt's entry in the TaskManager's task table. In
// the slot of a chain's first attempt, live is the chain's current
// attempt, so CancelChain can abort the chain wherever it stands; later
// attempts leave it nil.
type taskSlot struct {
	task *Task
	live *Task
}

// NewTaskManager creates a task manager bound to one or more pilots.
func NewTaskManager(engine *simclock.Engine, pilots ...*Pilot) *TaskManager {
	if engine == nil || len(pilots) == 0 {
		panic("pilot: task manager needs an engine and at least one pilot")
	}
	tm := &TaskManager{
		engine:      engine,
		attemptHist: make(map[int]int),
	}
	for _, p := range pilots {
		tm.AddPilot(p)
	}
	return tm
}

// AddPilot attaches another pilot to this task manager.
func (tm *TaskManager) AddPilot(p *Pilot) {
	if p == nil {
		panic("pilot: nil pilot")
	}
	if tm.pilot(p.ID) != nil {
		panic("pilot: pilot " + p.ID + " added twice")
	}
	tm.pilots = append(tm.pilots, p)
	p.agent.tm = tm
}

// pilot returns the attached pilot with the given ID, or nil. A task
// manager serves a handful of pilots, so a scan beats hashing the ID.
func (tm *TaskManager) pilot(id string) *Pilot {
	for _, p := range tm.pilots {
		if p.ID == id {
			return p
		}
	}
	return nil
}

// Pilots returns the attached pilots in attachment order.
func (tm *TaskManager) Pilots() []*Pilot { return append([]*Pilot(nil), tm.pilots...) }

// resolve picks the pilot a description targets: an explicit ID must
// exist; otherwise the first pilot whose node shape could ever satisfy
// the request wins (falling back to the first pilot so the submission
// fails with a capacity error rather than a routing one).
func (tm *TaskManager) resolve(td TaskDescription) (*Pilot, error) {
	if td.Pilot != "" {
		p := tm.pilot(td.Pilot)
		if p == nil {
			return nil, fmt.Errorf("pilot: task %q targets unknown pilot %q", td.Name, td.Pilot)
		}
		return p, nil
	}
	req := cluster.Request{Cores: td.Cores, GPUs: td.GPUs, MemGB: td.MemGB}
	for _, p := range tm.pilots {
		if p.agent.cluster.Fits(req) {
			return p, nil
		}
	}
	return tm.pilots[0], nil
}

// OnState registers a callback invoked on every task state transition.
// Callbacks run inside engine events; they may submit more tasks.
func (tm *TaskManager) OnState(fn func(*Task, TaskState)) {
	if fn == nil {
		panic("pilot: nil state callback")
	}
	tm.callbacks = append(tm.callbacks, fn)
}

// Submit validates and enqueues a task for execution on its resolved
// pilot. Impossible resource requests (bigger than any node of that
// pilot) fail fast instead of wedging the queue.
func (tm *TaskManager) Submit(td TaskDescription) (*Task, error) {
	if err := td.validate(); err != nil {
		return nil, err
	}
	p, err := tm.resolve(td)
	if err != nil {
		return nil, err
	}
	tm.nextUID++
	t := &Task{
		ID:          taskID(tm.nextUID),
		UID:         tm.nextUID,
		Description: td,
		PilotID:     p.ID,
		Attempt:     1,
		chain:       tm.nextUID,
		state:       StateNew,
		SubmittedAt: tm.engine.Now(),
	}
	t.Origin = t.ID
	t.pilot = p
	t.seed = deriveTaskSeed(p.desc.Seed, t.ID)
	tm.tasks = append(tm.tasks, taskSlot{task: t, live: t})
	tm.transition(t, StateSubmitted)

	if p.state == PilotDone {
		tm.fail(t, fmt.Errorf("pilot: %s is done", p.ID))
		return t, nil
	}
	req := cluster.Request{Cores: td.Cores, GPUs: td.GPUs, MemGB: td.MemGB}
	if !p.agent.cluster.Fits(req) {
		tm.fail(t, fmt.Errorf("pilot: task %s request %+v exceeds %s node capacity", t.ID, req, p.ID))
		return t, nil
	}
	p.agent.enqueue(t)
	return t, nil
}

// MustSubmit is Submit for callers whose descriptions are statically
// valid; it panics on error.
func (tm *TaskManager) MustSubmit(td TaskDescription) *Task {
	t, err := tm.Submit(td)
	if err != nil {
		panic(err)
	}
	return t
}

// Cancel cancels a queued or running task; terminal tasks are unaffected.
func (tm *TaskManager) Cancel(t *Task) {
	if t == nil || t.state.Final() {
		return
	}
	t.pilot.agent.unwind(t, StateCanceled, errors.New("pilot: cancelled by client"))
}

// Get returns a task by UID.
func (tm *TaskManager) Get(uid uint64) (*Task, bool) {
	if uid == 0 || uid > uint64(len(tm.tasks)) {
		return nil, false
	}
	return tm.tasks[uid-1].task, true
}

// Count returns how many tasks were ever submitted.
func (tm *TaskManager) Count() int { return len(tm.tasks) }

func (tm *TaskManager) transition(t *Task, to TaskState) {
	if !legalTransition(t.state, to) {
		panic(fmt.Sprintf("pilot: illegal transition %v -> %v for %s", t.state, to, t.ID))
	}
	t.state = to
	if to.Final() && !t.WillRetry() {
		// The logical task's attempt chain ends here; record how many
		// attempts it took (1 for every task in a fault-free campaign).
		tm.attemptHist[t.Attempt]++
	}
	for _, cb := range tm.callbacks {
		cb(t, to)
	}
}

func (tm *TaskManager) fail(t *Task, err error) {
	t.Err = err
	t.EndedAt = tm.engine.Now()
	if t.Attempt > 1 {
		// A resubmission that could not land anywhere ends its chain.
		tm.terminal++
	}
	tm.transition(t, StateFailed)
}

// planRecovery stages the recovery decision for a failing attempt. It
// runs before the FAILED transition so callbacks observe WillRetry. The
// decision comes from the recovery policy of the pilot the attempt
// failed on — recovery is selected per pilot exactly like scheduling.
// With checkpointing on, the staged resubmission resumes from the
// attempt's last checkpoint instead of attempt-from-zero (checkpoints
// live on the shared filesystem, so they survive the node that failed).
func (tm *TaskManager) planRecovery(t *Task, kind fault.Kind) {
	if kind > fault.KindNone && kind < fault.KindCount {
		tm.faultsByKind[kind]++
	}
	d := t.pilot.recovery.Decide(fault.Attempt{Attempt: t.Attempt, Kind: kind, Node: t.Node()})
	if !d.Retry {
		return
	}
	plan := &requeuePlan{delay: d.Delay, exclude: -1}
	if d.ExcludeNode {
		if n := t.Node(); n >= 0 {
			plan.exclude = n
		}
	}
	if t.pilot.desc.CheckpointInterval > 0 {
		plan.resumeFrom = checkpointProgress(t, tm.engine.Now())
		if plan.resumeFrom > t.ResumeFrom {
			if tel := t.pilot.tel; tel != nil {
				tel.Instant(tm.engine.Now(), telemetry.KindTaskCheckpoint, t.pilot.ordinal, t.Node(), t.ID)
			}
		}
	}
	t.requeue = plan
}

// checkpointProgress returns the durably saved progress of an attempt at
// the current virtual instant under its pilot's checkpoint interval: the
// progress it carried in, plus every whole interval completed since the
// run began (internal/preempt's lazy-checkpoint arithmetic). Attempts
// not yet running (and pilots without checkpointing) save nothing beyond
// what they arrived with.
func checkpointProgress(t *Task, now simclock.Time) time.Duration {
	if t.state != StateRunning {
		return t.ResumeFrom
	}
	return preempt.Progress(t.ResumeFrom, now.Sub(t.RunAt), t.pilot.desc.CheckpointInterval)
}

// execRecovery runs after a failed attempt's FAILED transition: it either
// closes the books on a terminal failure or schedules the planned
// resubmission on the virtual timeline (possibly after a backoff delay).
func (tm *TaskManager) execRecovery(t *Task) {
	if t.requeue == nil {
		if t.FaultKind != fault.KindNone {
			tm.terminal++
		}
		return
	}
	tm.resubmitted++
	plan := t.requeue
	plan.event = tm.engine.AfterTagged(plan.delay, t.ID, ":requeue", "", func() {
		tm.resubmit(t, plan)
	})
}

// SetRerouter installs the routing hook resubmission consults when a
// failed attempt's pilot is gone. The coordinator supplies its
// resource-class-aware placement here so migrated work lands on a pilot
// that actually serves it.
func (tm *TaskManager) SetRerouter(fn func(td TaskDescription) (*Pilot, bool)) {
	tm.reroute = fn
}

// CancelChain cancels a logical task wherever its attempt chain
// currently stands: a pending resubmission is dropped and the live
// attempt (queued or running) is cancelled. Terminal chains are
// unaffected. A pending resubmission always belongs to the live attempt,
// because the next attempt does not exist until it fires.
func (tm *TaskManager) CancelChain(t *Task, reason string) {
	if t == nil {
		return
	}
	cur := tm.tasks[t.chain-1].live
	if cur.requeue != nil {
		tm.engine.Cancel(cur.requeue.event)
	}
	if !cur.state.Final() {
		cur.pilot.agent.unwind(cur, StateCanceled, fmt.Errorf("pilot: %s", reason))
	}
}

// resubmit submits the next attempt of a failed task. The attempt is a
// fresh Task (new UID, new jitter seed) sharing the original's Origin and
// description; node exclusions accumulate while the task stays on the
// same pilot. When the original pilot is gone, the first surviving pilot
// whose node shape fits takes over; with none left the attempt fails
// fast and the chain ends.
func (tm *TaskManager) resubmit(orig *Task, plan *requeuePlan) {
	td := orig.Description
	req := cluster.Request{Cores: td.Cores, GPUs: td.GPUs, MemGB: td.MemGB}
	p := orig.pilot
	avoid := append([]int(nil), orig.avoidNodes...)
	if plan.exclude >= 0 {
		avoid = append(avoid, plan.exclude)
	}
	if plan.pilotHint != "" {
		// A preemptive-shrink eviction resumes on the transfer's receiver
		// when it is still standing and its nodes can actually host the
		// task (a GPU task evicted off a donated node has no business on
		// a CPU-only receiver); otherwise the normal routing applies.
		if np := tm.pilot(plan.pilotHint); np != nil && !np.unavailable() && np.agent.cluster.Fits(req) {
			if np != p {
				avoid = nil // node IDs are per-cluster; they do not transfer
			}
			p = np
		}
	}
	if p.unavailable() {
		if tm.reroute != nil {
			np, ok := tm.reroute(td)
			if !ok || np == nil || np.unavailable() {
				np = nil
			}
			p = np
		} else {
			p = tm.alternativePilot(td, orig.pilot)
		}
		avoid = nil // node IDs are per-cluster; they do not transfer
	}
	tm.nextUID++
	t := &Task{
		ID:          taskID(tm.nextUID),
		UID:         tm.nextUID,
		Description: td,
		Attempt:     orig.Attempt + 1,
		Origin:      orig.Origin,
		chain:       orig.chain,
		ResumeFrom:  plan.resumeFrom,
		state:       StateNew,
		SubmittedAt: tm.engine.Now(),
	}
	if plan.resumeFrom > 0 {
		tm.resumes++
	}
	if p == nil {
		// No pilot left to host the retry: submit against the dead
		// original pilot so the failure surfaces through the normal
		// fail-fast path, terminally.
		p = orig.pilot
	}
	// Dropping exclusions that leave no node able to host the request
	// beats starving the attempt in the queue forever: single-node
	// machines make "elsewhere" degrade to plain retry, and so does a
	// heterogeneous pilot whose only fitting node killed the attempt.
	if len(avoid) > 0 && !p.agent.cluster.FitsOutside(req, avoid) {
		avoid = nil
	}
	t.avoidNodes = avoid
	t.pilot = p
	t.PilotID = p.ID
	t.seed = deriveTaskSeed(p.desc.Seed, t.ID)
	tm.tasks = append(tm.tasks, taskSlot{task: t})
	tm.tasks[t.chain-1].live = t
	tm.transition(t, StateSubmitted)

	if p.state == PilotDone {
		tm.fail(t, fmt.Errorf("pilot: no pilot available to resubmit %s (attempt %d)", t.Origin, t.Attempt))
		return
	}
	if !p.agent.cluster.Fits(req) {
		tm.fail(t, fmt.Errorf("pilot: task %s request %+v exceeds %s node capacity", t.ID, req, p.ID))
		return
	}
	p.agent.enqueue(t)
}

// alternativePilot picks the first live pilot other than exclude whose
// node shape could fit the request, or nil.
func (tm *TaskManager) alternativePilot(td TaskDescription, exclude *Pilot) *Pilot {
	req := cluster.Request{Cores: td.Cores, GPUs: td.GPUs, MemGB: td.MemGB}
	for _, p := range tm.pilots {
		if p == exclude || p.unavailable() {
			continue
		}
		if p.agent.cluster.Fits(req) {
			return p
		}
	}
	return nil
}

// FaultTallies is the task manager's fault-recovery accounting.
type FaultTallies struct {
	// ByKind counts failed attempts per fault kind (indexed by
	// fault.Kind).
	ByKind [fault.KindCount]int
	// Resubmitted counts attempts that were requeued by recovery.
	Resubmitted int
	// Terminal counts fault-killed attempts whose chain ended there.
	Terminal int
	// Resumes counts resubmitted attempts that restarted from a
	// checkpoint rather than from zero.
	Resumes int
	// AttemptHist maps attempts-needed -> number of logical tasks whose
	// chain ended after exactly that many attempts.
	AttemptHist map[int]int
}

// FaultTallies returns a copy of the fault-recovery accounting.
func (tm *TaskManager) FaultTallies() FaultTallies {
	hist := make(map[int]int, len(tm.attemptHist))
	for k, v := range tm.attemptHist {
		hist[k] = v
	}
	return FaultTallies{
		ByKind:      tm.faultsByKind,
		Resubmitted: tm.resubmitted,
		Terminal:    tm.terminal,
		Resumes:     tm.resumes,
		AttemptHist: hist,
	}
}

func deriveTaskSeed(pilotSeed uint64, taskID string) uint64 {
	// Fold the task ID into the pilot seed so each task owns an
	// independent deterministic stream.
	h := pilotSeed
	for i := 0; i < len(taskID); i++ {
		h = h*0x100000001b3 ^ uint64(taskID[i])
	}
	return h ^ 0x9e3779b97f4a7c15
}
