package pilot

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sort"
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

	// lanes hold the tasks waiting for resources: lanes[s] those of
	// shapes[s] and overflow those whose request arrived after the shape
	// table filled, each lane in submission order. seq numbers the
	// enqueues, so submission order across lanes is the order of the
	// entries' seq. depth counts the queued tasks, started tasks included
	// until their pass ends.
	lanes    []lane
	overflow lane
	seq      uint64
	depth    int
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
	// distinct requests of enqueued tasks, one lane each. covers[s] is the
	// bit set of interned shapes that Cover shapes[s]: when a task of shape
	// s fits nowhere, no task of a shape in covers[s] fits for the rest of
	// the pass either, because placements only shrink free capacity.
	shapes []cluster.Request
	covers []uint64

	// Scratch buffers reused across passes (the lanes merged by seq, the
	// policy's queue view, offer marks) so the steady-state hot path
	// allocates nothing.
	scratchMerged  []laneEntry
	scratchItems   []sched.Task
	scratchOffered []bool

	// Telemetry gauge names, concatenated once at construction so the
	// per-event gauge updates allocate nothing.
	gaugeRunning   string
	gaugeFreeCores string
	gaugeFreeGPUs  string
}

// laneEntry is one queued task and its enqueue sequence number.
type laneEntry struct {
	task *Task
	seq  uint64
}

// lane is one shape's queued tasks in submission order: buf[head:]. A
// pass that starts tasks near the front of a lane may leave it resliced
// from the front (head > 0); push slides it back to the start of its
// array before the array would grow, and an emptied lane resets to it.
type lane struct {
	buf  []laneEntry
	head int
	// Pass state, as indices into queued(): cur is the next entry the
	// submission-order pass offers capacity, holes the ascending indices
	// of the entries the pass started.
	cur   int
	holes []int32
}

// queued returns the lane's entries.
func (l *lane) queued() []laneEntry { return l.buf[l.head:] }

// push appends e to the lane.
func (l *lane) push(e laneEntry) {
	if len(l.buf) == cap(l.buf) && l.head > 0 {
		n := copy(l.buf, l.buf[l.head:])
		clear(l.buf[n:])
		l.buf, l.head = l.buf[:n], 0
	}
	l.buf = append(l.buf, e)
}

// remove deletes the entry at index i of queued().
func (l *lane) remove(i int) {
	l.buf = slices.Delete(l.buf, l.head+i, l.head+i+1)
	if len(l.buf) == l.head {
		l.buf, l.head = l.buf[:0], 0
	}
}

// drop removes the entries at the indices holes of queued(), clears
// holes, and returns how many it removed. Survivors keep their order.
// The run of survivors in the widest gap between holes (or between a
// hole and an end of the lane) stays in place; the survivors before it
// shift toward it, and those after it, mid-pass arrivals included, shift
// back, so a pass moves as few entries as its placements allow.
func (l *lane) drop() int {
	holes := l.holes
	k := len(holes)
	if k == 0 {
		return 0
	}
	q := l.queued()
	// Gap j runs from holes[j-1] to holes[j], with the ends of the lane
	// as holes -1 and len(q).
	gap := func(j int) (lo, hi int) {
		lo, hi = -1, len(q)
		if j > 0 {
			lo = int(holes[j-1])
		}
		if j < k {
			hi = int(holes[j])
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
	first, last := 0, len(q)
	if keep < k {
		w := int(holes[keep])
		for j := keep + 1; j <= k; j++ {
			lo, hi := gap(j)
			w += copy(q[w:], q[lo+1:hi])
		}
		clear(q[w:])
		last = w
	}
	if keep > 0 {
		w := int(holes[keep-1]) + 1
		for j := keep - 1; j >= 0; j-- {
			lo, hi := gap(j)
			w -= hi - lo - 1
			copy(q[w:], q[lo+1:hi])
		}
		clear(q[:w])
		first = w
	}
	l.holes = holes[:0]
	if first == last {
		l.buf, l.head = l.buf[:0], 0
	} else {
		l.buf = l.buf[:l.head+last]
		l.head += first
	}
	return k
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
		a.rec.SetQueueDepth(a.pilot.ordinal, a.pilot.engine.Now(), a.depth)
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
	a.lane(a.internShape(requestOf(t))).push(laneEntry{task: t, seq: a.seq})
	a.seq++
	a.depth++
	a.blocked = false
	a.noteQueueDepth()
	if a.pilot.state == PilotActive {
		a.schedule()
	}
}

// noShape is the shape of a task whose request arrived after the agent's
// shape table filled: it waits in the overflow lane, which the pass
// offers capacity every time.
const noShape = -1

// maxShapes bounds the shape table, so that a pass's failed shapes fit in
// one machine word.
const maxShapes = 64

// shapeOf returns r's id in the agent's shape table, or noShape.
func (a *agent) shapeOf(r cluster.Request) int8 {
	for i, s := range a.shapes {
		if s == r {
			return int8(i)
		}
	}
	return noShape
}

// internShape returns r's id in the agent's shape table, adding it, its
// lane, and extending the covers sets both ways, when it is new.
func (a *agent) internShape(r cluster.Request) int8 {
	if s := a.shapeOf(r); s != noShape || len(a.shapes) == maxShapes {
		return s
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
	a.lanes = append(a.lanes, lane{})
	return int8(id)
}

// lane returns the lane of shape s.
func (a *agent) lane(s int8) *lane {
	if s == noShape {
		return &a.overflow
	}
	return &a.lanes[s]
}

// allLanes yields every lane, the overflow lane last.
func (a *agent) allLanes(yield func(*lane) bool) {
	for s := range a.lanes {
		if !yield(&a.lanes[s]) {
			return
		}
	}
	yield(&a.overflow)
}

// dequeue removes a queued task that leaves without being placed
// (cancelled, failed or evicted). Only the lane of the task's shape is
// searched.
func (a *agent) dequeue(t *Task) {
	l := a.lane(a.shapeOf(requestOf(t)))
	if i := slices.IndexFunc(l.queued(), func(e laneEntry) bool { return e.task == t }); i >= 0 {
		l.remove(i)
		a.depth--
	}
	a.noteQueueDepth()
}

// mergedQueue returns the entries of every lane merged into submission
// order, in a scratch buffer that the next call reuses.
func (a *agent) mergedQueue() []laneEntry {
	m := a.scratchMerged[:0]
	for l := range a.allLanes {
		m = append(m, l.queued()...)
	}
	slices.SortFunc(m, func(x, y laneEntry) int { return cmp.Compare(x.seq, y.seq) })
	a.scratchMerged = m
	return m
}

// queuedTasks returns a copy of the queued tasks in submission order, for
// the loops that unwind them one by one while the queue shrinks.
func (a *agent) queuedTasks() []*Task {
	m := a.mergedQueue()
	out := make([]*Task, len(m))
	for i, e := range m {
		out[i] = e.task
	}
	return out
}

// QueueLen returns the number of tasks waiting for resources.
func (a *agent) QueueLen() int { return a.depth }

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
	if !a.pilot.Active() || a.depth == 0 {
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

	// The pass offers capacity to the tasks queued now; transition
	// callbacks may enqueue new arrivals mid-pass, which wait for the next
	// pass.
	depth := a.depth
	if sched.SubmissionOrder(a.policy) {
		a.submissionPass()
		a.finishPass(depth)
		return
	}

	queue := a.mergedQueue()
	n := len(queue)
	items := a.scratchItems[:0]
	for _, e := range queue {
		items = append(items, sched.Task{UID: e.task.UID, Req: requestOf(e.task)})
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
		t := queue[idx].task
		alloc := a.allocate(t)
		if alloc == nil {
			blocked = true
			continue
		}
		a.startSetup(t, alloc)
	}
	// Unstarted tasks stay queued in submission order, whatever order the
	// policy visited them in.
	for l := range a.allLanes {
		for i, e := range l.queued() {
			if e.task.state != StateScheduling {
				l.holes = append(l.holes, int32(i))
			}
		}
	}
	a.finishPass(depth)
}

// submissionPass is the fifo/backfill pass: offer capacity to the queued
// tasks in submission order, starting every task that fits. It takes,
// again and again, the lane head of smallest seq among the lanes it still
// visits. Fifo stops at the first task that does not fit. Backfill goes
// on, but a miss by a task without node exclusions marks its shape, and
// every shape covering it, as failed for the rest of the pass: the pass
// stops visiting their lanes (an Allocate that fails changes nothing),
// and it ends once every lane left to visit is marked. A release by a
// transition callback clears the marks; the cursor of each marked lane
// then skips the entries a pass over one queue would have walked past.
// Placements are exactly those of offering every task in turn.
func (a *agent) submissionPass() {
	continueOnBlock := a.policy.ContinueOnBlock()
	stamp := a.cluster.FreedStamp()
	// Entries from end on arrived mid-pass. live marks the shape lanes
	// with entries left to visit.
	end := a.seq
	var live, failed uint64
	for s := range a.lanes {
		if l := &a.lanes[s]; len(l.queued()) > 0 {
			live |= 1 << s
			l.cur = 0
		}
	}
	a.overflow.cur = 0
	for {
		s, next := int8(noShape), end
		if q, i := a.overflow.queued(), a.overflow.cur; i < len(q) {
			next = min(next, q[i].seq)
		}
		for m := live &^ failed; m != 0; m &= m - 1 {
			id := bits.TrailingZeros64(m)
			l := &a.lanes[id]
			q := l.queued()
			if l.cur == len(q) || q[l.cur].seq >= end {
				live &^= 1 << id
			} else if q[l.cur].seq < next {
				s, next = int8(id), q[l.cur].seq
			}
		}
		if next == end {
			break
		}
		l := a.lane(s)
		i := l.cur
		l.cur++
		t := l.queued()[i].task
		if alloc := a.allocate(t); alloc != nil {
			l.holes = append(l.holes, int32(i))
			a.startSetup(t, alloc)
			if fs := a.cluster.FreedStamp(); fs != stamp {
				stamp = fs
				a.skipPast(live&failed, next)
				failed = 0
			}
		} else if !continueOnBlock {
			break
		} else if s != noShape && len(t.avoidNodes) == 0 {
			failed |= a.covers[s]
		}
	}
}

// skipPast moves the cursor of each shape lane in m past its entries of
// seq at most seq.
func (a *agent) skipPast(m, seq uint64) {
	for ; m != 0; m &= m - 1 {
		l := &a.lanes[bits.TrailingZeros64(m)]
		q := l.queued()[l.cur:]
		l.cur += sort.Search(len(q), func(j int) bool { return q[j].seq > seq })
	}
}

// finishPass drops the tasks the pass started from their lanes, and
// latches the blocked watermark when the pass ends with work still
// waiting. depth is the queue depth when the pass began: mid-pass
// arrivals, which raise it, suppress the latch — they were never offered
// resources, so the next pass must run.
func (a *agent) finishPass(depth int) {
	arrivals := a.depth > depth
	for l := range a.allLanes {
		a.depth -= l.drop()
	}
	if !arrivals && a.depth > 0 {
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

// unwind ends an attempt wherever it lives, in the given final state: a
// queued task leaves its lane, a placed one releases its allocation and
// busy counters through finish. Cancellation, faults and evictions all
// end an attempt through here.
func (a *agent) unwind(t *Task, state TaskState, err error) {
	switch t.state {
	case StateSubmitted, StateScheduling:
		a.dequeue(t)
		t.EndedAt = a.pilot.engine.Now()
		t.Err = err
		if a.rec != nil {
			a.rec.AddTask(a.record(t, state, false))
		}
		a.tm.transition(t, state)
	case StateExecSetup, StateRunning:
		ex := t.exec
		if ex.inSetup {
			a.activeSetups--
			ex.inSetup = false
		}
		a.finish(ex, state, err)
	}
}

// failWithFault fails one attempt through the fault subsystem. The
// recovery decision is staged *before* the FAILED transition so
// observers (the coordinator, the trace) can tell a to-be-resubmitted
// attempt from a terminal failure; the attempt then unwinds, and any
// planned resubmission is scheduled last.
func (a *agent) failWithFault(t *Task, kind fault.Kind, err error) {
	if t.state.Final() {
		return
	}
	t.FaultKind = kind
	a.tm.planRecovery(t, kind)
	a.unwind(t, StateFailed, err)
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
// fault-model walltime expiry, whose victims may be resubmitted on a
// surviving pilot.
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
	a.unwind(t, StateFailed, fmt.Errorf("pilot: %s", reason))
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
