package pilot

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"impress/internal/cluster"
	"impress/internal/fault"
	"impress/internal/preempt"
	"impress/internal/sched"
	"impress/internal/simclock"
	"impress/internal/telemetry"
	"impress/internal/trace"
)

// agent is the on-resource component of a pilot: a continuous scheduler
// feeding an executor, per the paper's Fig. 1 ("Agent: Executor,
// Scheduler"). It places queued tasks onto the pilot's resource ledger as
// capacity frees up, runs their sandbox setup, replays their phase
// profiles on the virtual timeline, and reports every transition through
// the TaskManager. The *order* in which queued tasks are offered
// resources is delegated to a sched.Policy; the agent owns the mechanism
// (allocation, setup, execution, unwinding).
type agent struct {
	pilot   *Pilot
	cluster *cluster.Cluster
	rec     *trace.Recorder
	tm      *TaskManager
	policy  sched.Policy

	// queue holds the tasks waiting for resources in submission order,
	// each with its interned shape, so a pass can skip a failed shape
	// without loading the task.
	queue []queueEntry
	// running holds the placed executions in no particular order; each
	// execution knows its slot, so finish swap-removes it in O(1). Loops
	// that act on several executions sort them by task UID first.
	running []*execution

	activeSetups int

	scheduling bool
	rerun      bool

	// Incremental-scheduling state: after a pass leaves tasks queued, the
	// agent latches the cluster's freed-capacity watermark. Until capacity
	// is released (or a new task arrives, which clears the latch), re-runs
	// of the pass are provably no-ops and are skipped outright.
	blocked      bool
	blockedStamp uint64

	// Failed-shape memo of the submission-order pass. shapes interns the
	// distinct requests of enqueued tasks, and each queue entry carries its
	// task's id in that table. covers[s] is the bit set of interned shapes
	// that Cover shapes[s]: when a task of shape s fits nowhere, no task of
	// a shape in covers[s] fits for the rest of the pass either, because
	// placements only shrink free capacity. queued[s] counts the queued
	// tasks of shape s, and unshaped those that arrived after the table
	// filled (noShape), so a pass knows when every task it has yet to
	// visit is of a failed shape.
	shapes   []cluster.Request
	covers   []uint64
	queued   []int
	unshaped int

	// Scratch of the submission-order pass: per-shape counts of the tasks
	// it has yet to visit, and the queue indices of the tasks it started.
	left  []int
	holes []int

	// Scratch buffers reused across policy-path passes (queue view, offer
	// marks) so the steady-state hot path allocates nothing.
	scratchItems   []sched.Task
	scratchOffered []bool

	// Telemetry gauge names, concatenated once at construction so the
	// per-event gauge updates allocate nothing.
	gaugeRunning   string
	gaugeFreeCores string
	gaugeFreeGPUs  string
}

// queueEntry is one queued task and its request's id in the agent's
// shape table (noShape once the table is full).
type queueEntry struct {
	task  *Task
	shape int8
}

// execution tracks one placed task: its allocation, its pending timeline
// events, and the busy-resource deltas currently applied to the recorder
// (so cancellation can unwind them exactly).
type execution struct {
	task  *Task
	alloc *cluster.Alloc
	// slot is the execution's index in agent.running.
	slot int
	// setup is the sandbox-setup event; events are the run's phase, done
	// and fault events, sized once when the run starts.
	setup     simclock.Event
	events    []simclock.Event
	busyCores int
	busyGPUs  int
	inSetup   bool
	// ctx is what the payload sees; it lives here so that starting a run
	// allocates no context of its own.
	ctx ExecContext
}

func newAgent(p *Pilot, clu *cluster.Cluster, rec *trace.Recorder, pol sched.Policy) *agent {
	return &agent{
		pilot:          p,
		cluster:        clu,
		rec:            rec,
		policy:         pol,
		gaugeRunning:   p.ID + "/running",
		gaugeFreeCores: p.ID + "/free-cores",
		gaugeFreeGPUs:  p.ID + "/free-gpus",
	}
}

// noteQueueDepth records the pilot's current queue depth in the trace
// recorder's per-pilot series. Unchanged depths return without touching
// recorder state, so blocked scheduling passes stay allocation-free.
func (a *agent) noteQueueDepth() {
	if a.rec != nil {
		a.rec.SetQueueDepth(a.pilot.ordinal, a.pilot.engine.Now(), len(a.queue))
	}
}

// noteOccupancy samples the telemetry gauges that track the pilot's
// placement state. No-op (one nil check) when telemetry is off.
func (a *agent) noteOccupancy() {
	tel := a.pilot.tel
	if tel == nil {
		return
	}
	now := a.pilot.engine.Now()
	tel.SetGauge(a.gaugeRunning, now, len(a.running))
	tel.SetGauge(a.gaugeFreeCores, now, a.cluster.FreeCores())
	tel.SetGauge(a.gaugeFreeGPUs, now, a.cluster.FreeGPUs())
}

// enqueue accepts a task from the TaskManager and tries to place it. A
// new arrival invalidates the blocked-pass latch: the next pass must run
// even if no capacity was freed, because this task was never offered.
func (a *agent) enqueue(t *Task) {
	a.tm.transition(t, StateScheduling)
	s := a.internShape(requestOf(t))
	a.countQueued(s, 1)
	a.queue = append(a.queue, queueEntry{task: t, shape: s})
	a.blocked = false
	a.noteQueueDepth()
	if a.pilot.state == PilotActive {
		a.schedule()
	}
}

// noShape is the shape of a task whose request arrived after the agent's
// shape table filled: the pass offers it capacity every time.
const noShape = -1

// maxShapes bounds the shape table, so that a pass's failed shapes fit in
// one machine word.
const maxShapes = 64

// internShape returns r's id in the agent's shape table, adding it, and
// extending the covers sets both ways, when it is new.
func (a *agent) internShape(r cluster.Request) int8 {
	for i, s := range a.shapes {
		if s == r {
			return int8(i)
		}
	}
	if len(a.shapes) == maxShapes {
		return noShape
	}
	id := len(a.shapes)
	covers := uint64(1) << id
	for i, s := range a.shapes {
		if r.Covers(s) {
			a.covers[i] |= 1 << id
		}
		if s.Covers(r) {
			covers |= 1 << i
		}
	}
	a.shapes = append(a.shapes, r)
	a.covers = append(a.covers, covers)
	a.queued = append(a.queued, 0)
	return int8(id)
}

// countQueued adds d to the queued count of shape s.
func (a *agent) countQueued(s int8, d int) {
	if s == noShape {
		a.unshaped += d
	} else {
		a.queued[s] += d
	}
}

// dequeue removes a queued task that leaves without being placed
// (cancelled, failed or evicted).
func (a *agent) dequeue(t *Task) {
	if i := slices.IndexFunc(a.queue, func(q queueEntry) bool { return q.task == t }); i >= 0 {
		a.countQueued(a.queue[i].shape, -1)
		a.queue = slices.Delete(a.queue, i, i+1)
	}
	a.noteQueueDepth()
}

// queuedTasks returns a copy of the queued tasks in queue order, for the
// loops that unwind them one by one while the queue shrinks.
func (a *agent) queuedTasks() []*Task {
	out := make([]*Task, len(a.queue))
	for i, q := range a.queue {
		out[i] = q.task
	}
	return out
}

// QueueLen returns the number of tasks waiting for resources.
func (a *agent) QueueLen() int { return len(a.queue) }

// schedule is the continuous scheduling pass: offer free capacity to
// queued tasks in the order the pilot's scheduling policy picks, starting
// every task whose allocation fits. Under "fifo" the pass stops at the
// first task that does not fit (strict submission order); under
// "backfill" and the fit-ranking policies later tasks may jump a blocked
// one — that is how adaptive sub-pipelines soak up idle resources while
// a wide MSA task waits.
func (a *agent) schedule() {
	if a.scheduling {
		a.rerun = true
		return
	}
	a.scheduling = true
	defer func() { a.scheduling = false }()

	for {
		a.rerun = false
		a.schedulePass()
		if !a.rerun {
			return
		}
	}
}

func (a *agent) schedulePass() {
	if !a.pilot.Active() || len(a.queue) == 0 {
		return
	}
	// Incremental skip: the last pass left this queue blocked, and since
	// then no allocation was released and no node repaired (the cluster's
	// freed-capacity watermark is unchanged) and nothing was enqueued
	// (which clears the latch). Allocation outcomes are a pure function of
	// the queue and the free ledger, so re-running the pass would place
	// nothing — skip it.
	if a.blocked && a.cluster.FreedStamp() == a.blockedStamp {
		return
	}
	a.blocked = false

	// The pass offers capacity to queue[:n]; transition callbacks may
	// append new arrivals to queue mid-pass, which wait for the next pass.
	n := len(a.queue)
	if sched.SubmissionOrder(a.policy) {
		a.submissionPass(n)
		return
	}

	items := a.scratchItems[:0]
	for _, q := range a.queue[:n] {
		items = append(items, sched.Task{UID: q.task.UID, Req: requestOf(q.task)})
	}
	a.scratchItems = items
	order := a.policy.Order(items, a.cluster)

	if cap(a.scratchOffered) < n {
		a.scratchOffered = make([]bool, n)
	}
	offered := a.scratchOffered[:n]
	clear(offered)
	blocked := false
	for _, idx := range order {
		if idx < 0 || idx >= n || offered[idx] {
			panic(fmt.Sprintf("pilot: policy %q returned invalid placement order %v for a queue of %d", a.policy.Name(), order, n))
		}
		offered[idx] = true
		if blocked && !a.policy.ContinueOnBlock() {
			break
		}
		t := a.queue[idx].task
		alloc := a.allocate(t)
		if alloc == nil {
			blocked = true
			continue
		}
		a.startSetup(t, alloc)
	}
	// Unstarted tasks stay queued in submission order, whatever order the
	// policy visited them in.
	holes := a.holes[:0]
	for i, q := range a.queue[:n] {
		if q.task.state != StateScheduling {
			holes = append(holes, i)
		}
	}
	a.holes = holes
	a.finishPass(n, holes)
}

// submissionPass is the fifo/backfill pass: offer capacity to queue[:n]
// in submission order, starting every task that fits. Fifo stops at the
// first task that does not fit. Backfill goes on, but a miss by a task
// without node exclusions marks its shape, and every shape covering it,
// as failed for the rest of the pass: later tasks of a marked shape stay
// queued without asking the ledger (an Allocate that fails changes
// nothing), and once every task left to visit is of a marked shape the
// pass stops. A release by a transition callback clears the marks.
// Placements are exactly those of offering every task in turn.
func (a *agent) submissionPass(n int) {
	continueOnBlock := a.policy.ContinueOnBlock()
	stamp := a.cluster.FreedStamp()
	// left and unshaped count the tasks of queue[i:n] by shape; live marks
	// the shapes with any.
	left := append(a.left[:0], a.queued...)
	a.left = left
	unshaped := a.unshaped
	var live, failed uint64
	for s, c := range left {
		if c > 0 {
			live |= 1 << s
		}
	}
	holes := a.holes[:0]
	for i, q := range a.queue[:n] {
		s := q.shape
		if s == noShape {
			unshaped--
		} else if left[s]--; left[s] == 0 {
			live &^= 1 << s
		}
		if s == noShape || failed&(1<<s) == 0 {
			t := q.task
			if alloc := a.allocate(t); alloc != nil {
				holes = append(holes, i)
				a.startSetup(t, alloc)
				if fs := a.cluster.FreedStamp(); fs != stamp {
					stamp, failed = fs, 0
				}
			} else if !continueOnBlock {
				break
			} else if s != noShape && len(t.avoidNodes) == 0 {
				failed |= a.covers[s]
			}
		}
		if live&^failed == 0 && unshaped == 0 {
			break
		}
	}
	a.holes = holes
	a.finishPass(n, holes)
}

// finishPass removes the tasks a pass started, at the ascending indices
// holes of queue[:n], and latches the blocked watermark when the pass
// ends with work still waiting. Survivors keep their order. The run of
// survivors in the widest gap between holes (or between a hole and an
// end of the queue) stays in place; the survivors before it shift toward
// it, and those after it, mid-pass arrivals (queue[n:]) included, shift
// back, so a pass moves as few entries as its placements allow.
// Mid-pass arrivals suppress the latch — they were never offered
// resources, so the next pass must run.
func (a *agent) finishPass(n int, holes []int) {
	q := a.queue
	arrivals := len(q) > n
	if k := len(holes); k > 0 {
		// Gap j runs from holes[j-1] to holes[j], with the ends of the
		// queue as holes -1 and len(q).
		gap := func(j int) (lo, hi int) {
			lo, hi = -1, len(q)
			if j > 0 {
				lo = holes[j-1]
			}
			if j < k {
				hi = holes[j]
			}
			return lo, hi
		}
		keep := 0
		for j := 1; j <= k; j++ {
			lo, hi := gap(j)
			if klo, khi := gap(keep); hi-lo > khi-klo {
				keep = j
			}
		}
		for _, h := range holes {
			a.countQueued(q[h].shape, -1)
		}
		if keep < k {
			w := holes[keep]
			for j := keep + 1; j <= k; j++ {
				lo, hi := gap(j)
				w += copy(q[w:], q[lo+1:hi])
			}
			clear(q[w:])
			q = q[:w]
		}
		if keep > 0 {
			w := holes[keep-1] + 1
			for j := keep - 1; j >= 0; j-- {
				lo, hi := gap(j)
				w -= hi - lo - 1
				copy(q[w:], q[lo+1:hi])
			}
			clear(q[:w])
			q = q[w:]
		}
		a.queue = q
	}
	if !arrivals && len(q) > 0 {
		a.blocked = true
		a.blockedStamp = a.cluster.FreedStamp()
	}
	a.noteQueueDepth()
}

func requestOf(t *Task) cluster.Request {
	return cluster.Request{Cores: t.Description.Cores, GPUs: t.Description.GPUs, MemGB: t.Description.MemGB}
}

// allocate reserves resources for a task, honouring any node exclusions
// its recovery history imposed (resubmit-elsewhere). The common no-fault
// path is exactly the classic first-fit Allocate.
func (a *agent) allocate(t *Task) *cluster.Alloc {
	if len(t.avoidNodes) == 0 {
		return a.cluster.Allocate(requestOf(t))
	}
	return a.cluster.AllocateExcluding(requestOf(t), t.avoidNodes)
}

// startSetup begins the sandbox preparation phase. Setup time grows with
// the number of concurrent setups (shared-filesystem contention, Fig. 5
// caption).
func (a *agent) startSetup(t *Task, alloc *cluster.Alloc) {
	now := a.pilot.engine.Now()
	t.SetupAt = now
	ex := &execution{task: t, alloc: alloc, slot: len(a.running), inSetup: true}
	t.exec = ex
	a.running = append(a.running, ex)
	a.tm.transition(t, StateExecSetup)

	d := a.pilot.desc.Cost.SetupDuration(a.activeSetups, t.seed)
	a.activeSetups++
	if a.rec != nil {
		a.rec.AddPhase(trace.PhaseExecSetup, d)
	}
	a.noteOccupancy()
	ex.setup = a.pilot.engine.AfterTagged(d, t.ID, ":setup", "", func() {
		a.activeSetups--
		ex.inSetup = false
		a.startRun(ex)
	})
}

// startRun executes the payload eagerly and replays its phase profile.
func (a *agent) startRun(ex *execution) {
	t := ex.task
	engine := a.pilot.engine
	t.RunAt = engine.Now()
	a.tm.transition(t, StateRunning)

	ex.ctx = ExecContext{
		TaskID: t.ID,
		Now:    t.RunAt,
		Seed:   t.seed,
		Cores:  ex.alloc.Cores,
		GPUs:   ex.alloc.GPUs,
	}
	res, err := t.Description.Work.Run(&ex.ctx)
	if err != nil {
		a.failWithFault(t, fault.KindPayload, err)
		return
	}
	if verr := validatePhases(res.Phases, ex.alloc); verr != nil {
		a.failWithFault(t, fault.KindPayload, verr)
		return
	}
	t.Result = res

	// Checkpointed resume: skip the part of the phase profile a previous
	// attempt already banked. Phases fully inside the resume point never
	// schedule; the phase straddling it applies its busy profile at
	// offset zero; everything after shifts earlier by the resume amount.
	// With ResumeFrom zero (every attempt in a checkpoint-free campaign)
	// this is byte-identical to the legacy replay.
	resume := t.ResumeFrom
	if total := res.TotalDuration(); resume > total {
		resume = total
	}
	if resume > 0 {
		if tel := a.pilot.tel; tel != nil {
			tel.Instant(t.RunAt, telemetry.KindTaskResume, a.pilot.ordinal, t.Node(), t.ID)
		}
	}

	ex.events = make([]simclock.Event, 0, len(res.Phases)+2)
	var offset, start simclock.Duration
	for _, ph := range res.Phases {
		ph := ph
		end := start + ph.Duration
		if end > resume {
			at := start - resume
			if at < 0 {
				at = 0
			}
			ev := engine.AfterTagged(at, t.ID, ":phase:", ph.Name, func() {
				a.setBusy(ex, ph.BusyCores, ph.BusyGPUs)
			})
			ex.events = append(ex.events, ev)
		}
		start = end
		offset = end - resume
	}
	if offset < 0 {
		offset = 0
	}
	done := engine.AfterTagged(offset, t.ID, ":done", "", func() {
		a.finish(ex, StateDone, nil)
	})
	ex.events = append(ex.events, done)

	// Fault injection: the per-task failure model decides — purely from
	// the attempt's seed — whether this attempt dies mid-run. The fault
	// event rides in ex.events, so completion and cancellation cancel it
	// exactly like any phase event. With injection disabled no stream is
	// consumed and no event exists. A resumed attempt draws over its
	// remaining duration only.
	if inj := a.pilot.injector; inj != nil {
		if at, ok := inj.taskFault(t, offset); ok {
			ev := engine.AfterTagged(at, t.ID, ":fault", "", func() {
				a.failWithFault(t, fault.KindTask, fmt.Errorf("pilot: injected fault killed %s", t.ID))
			})
			ex.events = append(ex.events, ev)
		}
	}
}

func validatePhases(phases []Phase, alloc *cluster.Alloc) error {
	for _, ph := range phases {
		if ph.Duration < 0 {
			return fmt.Errorf("pilot: phase %q has negative duration", ph.Name)
		}
		if ph.BusyCores < 0 || ph.BusyCores > alloc.Cores {
			return fmt.Errorf("pilot: phase %q busy cores %d outside allocation %d", ph.Name, ph.BusyCores, alloc.Cores)
		}
		if ph.BusyGPUs < 0 || ph.BusyGPUs > alloc.GPUs {
			return fmt.Errorf("pilot: phase %q busy GPUs %d outside allocation %d", ph.Name, ph.BusyGPUs, alloc.GPUs)
		}
	}
	return nil
}

func (a *agent) setBusy(ex *execution, cores, gpus int) {
	if a.rec != nil {
		a.rec.AddBusy(a.pilot.engine.Now(), cores-ex.busyCores, gpus-ex.busyGPUs)
	}
	ex.busyCores = cores
	ex.busyGPUs = gpus
}

// finish retires an execution: unwind busy counters, release the
// allocation, record the task timeline, notify, and reschedule.
func (a *agent) finish(ex *execution, state TaskState, err error) {
	t := ex.task
	now := a.pilot.engine.Now()
	a.setBusy(ex, 0, 0)
	a.pilot.engine.Cancel(ex.setup)
	for _, ev := range ex.events {
		a.pilot.engine.Cancel(ev)
	}
	a.cluster.Release(ex.alloc)
	a.removeRunning(ex)
	a.noteOccupancy()
	t.EndedAt = now
	t.Err = err
	if a.rec != nil {
		if t.RunAt > 0 || state == StateDone {
			a.rec.AddPhase(trace.PhaseRunning, t.EndedAt.Sub(t.RunAt))
		}
		a.rec.AddTask(a.record(t, state, true))
	}
	a.tm.transition(t, state)
	a.schedule()
}

// removeRunning swap-removes ex from the running slice.
func (a *agent) removeRunning(ex *execution) {
	last := len(a.running) - 1
	moved := a.running[last]
	a.running[ex.slot] = moved
	moved.slot = ex.slot
	a.running[last] = nil
	a.running = a.running[:last]
}

// anyExecution and onNode select executions for runningByUID.
func anyExecution(*execution) bool { return true }

func onNode(id int) func(*execution) bool {
	return func(ex *execution) bool { return ex.alloc.Node.ID == id }
}

// runningByUID returns the running executions that keep pred, in task-UID
// order, so a loop that unwinds several is deterministic.
func (a *agent) runningByUID(pred func(*execution) bool) []*execution {
	var out []*execution
	for _, ex := range a.running {
		if pred(ex) {
			out = append(out, ex)
		}
	}
	slices.SortFunc(out, func(x, y *execution) int { return cmp.Compare(x.task.UID, y.task.UID) })
	return out
}

func (a *agent) record(t *Task, state TaskState, placed bool) trace.TaskRecord {
	faultName := ""
	if state == StateFailed && t.FaultKind != fault.KindNone {
		faultName = t.FaultKind.String()
	}
	// Saved is the checkpointed progress this attempt banked for its
	// successor — the slice of its run the preemption accounting credits
	// as useful rather than wasted.
	var saved time.Duration
	if t.requeue != nil && t.requeue.resumeFrom > t.ResumeFrom {
		saved = t.requeue.resumeFrom - t.ResumeFrom
	}
	return trace.TaskRecord{
		ID:        t.ID,
		Name:      t.Description.Name,
		Submitted: t.SubmittedAt,
		SetupAt:   t.SetupAt,
		RunAt:     t.RunAt,
		EndedAt:   t.EndedAt,
		Cores:     t.Description.Cores,
		GPUs:      t.Description.GPUs,
		State:     state.String(),
		Placed:    placed,
		Attempt:   t.Attempt,
		Node:      t.Node(),
		Fault:     faultName,
		Pilot:     t.PilotID,
		Pipeline:  t.Tag("pipeline"),
		Stage:     t.Tag("stage"),
		Origin:    t.Origin,
		Resumed:   t.ResumeFrom,
		Saved:     saved,
	}
}

// failWithFault fails one attempt through the fault subsystem. The
// recovery decision is staged *before* the FAILED transition so
// observers (the coordinator, the trace) can tell a to-be-resubmitted
// attempt from a terminal failure; the attempt then unwinds the ledger
// and busy counters exactly as the cancel path does, and any planned
// resubmission is scheduled last.
func (a *agent) failWithFault(t *Task, kind fault.Kind, err error) {
	if t.state.Final() {
		return
	}
	t.FaultKind = kind
	a.tm.planRecovery(t, kind)
	switch t.state {
	case StateSubmitted, StateScheduling:
		a.dequeue(t)
		t.EndedAt = a.pilot.engine.Now()
		t.Err = err
		if a.rec != nil {
			a.rec.AddTask(a.record(t, StateFailed, false))
		}
		a.tm.transition(t, StateFailed)
	case StateExecSetup, StateRunning:
		ex := t.exec
		if ex.inSetup {
			a.activeSetups--
			ex.inSetup = false
		}
		a.finish(ex, StateFailed, err)
	}
	a.tm.execRecovery(t)
}

// failNode kills every execution resident on a crashed node, in task-UID
// order for determinism. The node must already be marked down so the
// rescheduling cascade cannot place new work onto it.
func (a *agent) failNode(nodeID int) {
	for _, ex := range a.runningByUID(onNode(nodeID)) {
		a.failWithFault(ex.task, fault.KindNodeCrash,
			fmt.Errorf("pilot: node %d crashed under %s", nodeID, ex.task.ID))
	}
}

// failAll fails everything on the pilot with the given fault kind — the
// fault-model walltime expiry, whose victims (unlike legacy cancellation)
// may be resubmitted on a surviving pilot.
func (a *agent) failAll(kind fault.Kind, reason string) {
	for _, t := range a.queuedTasks() {
		a.failWithFault(t, kind, fmt.Errorf("pilot: %s", reason))
	}
	for _, ex := range a.runningByUID(anyExecution) {
		a.failWithFault(ex.task, kind, fmt.Errorf("pilot: %s", reason))
	}
}

// evict unwinds one attempt exactly like a fault — same queued/placed
// unwind, same ledger and busy-counter discipline — but requeues it with
// its checkpointed progress instead of consulting the recovery policy:
// eviction is a scheduling decision, not a failure, so the attempt chain
// always continues. resumeOn routes the resumed attempt to a named pilot
// (the receiver of a preemptive-shrink transfer); empty keeps the
// original routing.
func (a *agent) evict(t *Task, resumeOn, reason string) {
	if t.state.Final() {
		return
	}
	t.FaultKind = fault.KindPreempt
	a.tm.faultsByKind[fault.KindPreempt]++
	now := a.pilot.engine.Now()
	saved := checkpointProgress(t, now)
	t.requeue = &requeuePlan{exclude: -1, resumeFrom: saved, pilotHint: resumeOn}
	if tel := a.pilot.tel; tel != nil {
		if saved > t.ResumeFrom {
			tel.Instant(now, telemetry.KindTaskCheckpoint, a.pilot.ordinal, t.Node(), t.ID)
		}
		tel.Instant(now, telemetry.KindTaskEvict, a.pilot.ordinal, t.Node(), t.ID)
	}
	err := fmt.Errorf("pilot: %s", reason)
	switch t.state {
	case StateSubmitted, StateScheduling:
		a.dequeue(t)
		t.EndedAt = now
		t.Err = err
		if a.rec != nil {
			a.rec.AddTask(a.record(t, StateFailed, false))
		}
		a.tm.transition(t, StateFailed)
	case StateExecSetup, StateRunning:
		ex := t.exec
		if ex.inSetup {
			a.activeSetups--
			ex.inSetup = false
		}
		a.finish(ex, StateFailed, err)
	}
	a.tm.execRecovery(t)
}

// evictNode checkpoints and evicts every execution resident on a node,
// in task-UID order for determinism. The node must already be marked
// down so the unwind's rescheduling cascade cannot re-place work onto
// it.
func (a *agent) evictNode(nodeID int, resumeOn, reason string) {
	for _, ex := range a.runningByUID(onNode(nodeID)) {
		a.evict(ex.task, resumeOn, reason)
	}
}

// drainAll is the graceful walltime drain: everything queued and every
// placed attempt that cannot complete inside the grace window is
// checkpointed and evicted to surviving pilots; running work that fits
// keeps its allocation and finishes normally. The pilot must already be
// marked draining so the eviction cascade places nothing new.
func (a *agent) drainAll(grace time.Duration) {
	for _, t := range a.queuedTasks() {
		a.evict(t, "", "pilot walltime drain")
	}
	now := a.pilot.engine.Now()
	for _, ex := range a.runningByUID(anyExecution) {
		t := ex.task
		if t.state == StateRunning {
			remaining := t.Result.TotalDuration() - t.ResumeFrom - now.Sub(t.RunAt)
			if preempt.FinishesWithin(remaining, grace) {
				continue // finishes inside the window; let it run out
			}
		}
		// Attempts still in setup have unknowable completion; evict them
		// along with every run that overshoots the window.
		a.evict(t, "", "pilot walltime drain")
	}
}

// cancel removes a task wherever it currently lives.
func (a *agent) cancel(t *Task, reason string) {
	switch t.state {
	case StateSubmitted, StateScheduling:
		a.dequeue(t)
		t.EndedAt = a.pilot.engine.Now()
		t.Err = fmt.Errorf("pilot: %s", reason)
		if a.rec != nil {
			a.rec.AddTask(a.record(t, StateCanceled, false))
		}
		a.tm.transition(t, StateCanceled)
	case StateExecSetup, StateRunning:
		ex := t.exec
		if ex.inSetup {
			a.activeSetups--
			ex.inSetup = false
		}
		a.finish(ex, StateCanceled, fmt.Errorf("pilot: %s", reason))
	}
}

// terminateAll cancels everything (pilot cancellation or walltime).
func (a *agent) terminateAll(reason string) {
	for _, t := range a.queuedTasks() {
		a.cancel(t, reason)
	}
	for _, ex := range a.runningByUID(anyExecution) {
		a.cancel(ex.task, reason)
	}
}
