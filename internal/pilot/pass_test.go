package pilot

// Differential oracle for the submission-order scheduling pass: the
// agent's pass (failed-shape memo, early exit, in-place compaction) must
// place exactly what the naive pass places — every queued task offered
// capacity in turn — on randomized fleets, shape mixes, node faults,
// cancellations, evictions, elastic transfers and mid-pass arrivals and
// releases.

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"

	"impress/internal/cluster"
	"impress/internal/fault"
	"impress/internal/simclock"
)

// referencePass is the naive submission-order pass: it offers every
// queued task capacity in submission order (stopping at the first miss
// under fifo), rebuilds each lane from its unstarted tasks, and applies
// the same blocked-latch rules as the agent.
func referencePass(a *agent) {
	if !a.pilot.Active() || a.depth == 0 {
		return
	}
	if a.blocked && a.cluster.FreedStamp() == a.blockedStamp {
		return
	}
	a.blocked = false
	end := a.seq
	continueOnBlock := a.policy.ContinueOnBlock()
	for _, e := range slices.Clone(a.mergedQueue()) {
		alloc := a.allocate(e.task)
		if alloc == nil {
			if !continueOnBlock {
				break
			}
			continue
		}
		a.startSetup(e.task, alloc)
	}
	a.depth = 0
	arrivals := false
	for l := range a.allLanes {
		kept := slices.DeleteFunc(slices.Clone(l.queued()), func(e laneEntry) bool { return e.task.state != StateScheduling })
		*l = lane{buf: kept}
		a.depth += len(kept)
		arrivals = arrivals || slices.ContainsFunc(kept, func(e laneEntry) bool { return e.seq >= end })
	}
	if !arrivals && a.depth > 0 {
		a.blocked = true
		a.blockedStamp = a.cluster.FreedStamp()
	}
	a.noteQueueDepth()
}

// queuedIDs lists a's queued task IDs in submission order.
func queuedIDs(a *agent) []string {
	var ids []string
	for _, e := range a.mergedQueue() {
		ids = append(ids, e.task.ID)
	}
	return ids
}

// passWorld is one randomized simulation whose scheduling passes are run
// by the test: every agent's scheduling flag is held, so schedule() only
// requests a rerun, and drive runs the requested passes with pass after
// each engine event — exactly schedule()'s loop with the pass swapped.
type passWorld struct {
	engine *simclock.Engine
	tm     *TaskManager
	pilots []*Pilot
	pass   func(*agent)
	log    []string
}

func (w *passWorld) logf(format string, args ...any) {
	w.log = append(w.log, fmt.Sprintf("%v ", w.engine.Now())+fmt.Sprintf(format, args...))
}

// settle runs requested passes until no agent asks for another, logging
// each agent's queue after every pass.
func (w *passWorld) settle() {
	for again := true; again; {
		again = false
		for _, p := range w.pilots {
			a := p.agent
			if !a.rerun {
				continue
			}
			again = true
			a.rerun = false
			w.pass(a)
			w.logf("pass %s queue [%s]", p.ID, strings.Join(queuedIDs(a), " "))
		}
	}
}

func (w *passWorld) drive(t *testing.T) {
	t.Helper()
	for steps := 0; ; steps++ {
		w.settle()
		if steps > 2_000_000 {
			t.Fatal("simulation did not drain")
		}
		if !w.engine.Step() {
			return
		}
	}
}

// newPassWorld builds trial's simulation under policy. Both sides of the
// differential call it with the same arguments, so they draw the same
// fleets, shapes and event times for as long as their placements agree.
func newPassWorld(t *testing.T, policy string, trial int64, nShapes int, pass func(*agent)) *passWorld {
	rng := rand.New(rand.NewSource(trial*1_000_033 + int64(len(policy))))
	w := &passWorld{engine: simclock.New(), pass: pass}

	// A heterogeneous fleet per pilot: CPU-only and GPU nodes of varied
	// size, so coverage between shapes is partial in every dimension.
	randCap := func() cluster.NodeCapacity {
		nc := cluster.NodeCapacity{Cores: 4 + rng.Intn(29), MemGB: 16 + rng.Intn(113)}
		if rng.Intn(2) == 0 {
			nc.GPUs = 1 + rng.Intn(4)
		}
		return nc
	}
	var fs fault.Spec
	if rng.Intn(2) == 0 {
		fs.TaskFailProb = 0.05 + 0.2*rng.Float64()
	}
	if rng.Intn(2) == 0 {
		fs.NodeMTBF = time.Duration(2+rng.Intn(8)) * time.Hour
		fs.NodeRepair = time.Duration(10+rng.Intn(50)) * time.Minute
	}
	recovery := []string{"retry", "elsewhere", "backoff"}[rng.Intn(3)]
	pm := NewPilotManager(w.engine, nil)
	var home []cluster.NodeCapacity
	for i, n := 0, 1+rng.Intn(2); i < n; i++ {
		caps := make([]cluster.NodeCapacity, 1+rng.Intn(5))
		for j := range caps {
			caps[j] = randCap()
		}
		home = append(home, caps...)
		pd := PilotDescription{
			Machine:  cluster.Spec{Name: fmt.Sprintf("fleet%d", i), Nodes: len(caps), CoresPerNode: 1, MemGBPerNode: 1},
			Nodes:    caps,
			Cost:     testCost(),
			Policy:   policy,
			Fault:    fs,
			Recovery: recovery,
			Seed:     uint64(trial*31 + int64(i) + 1),
		}
		pd.Cost.JitterFrac = 0.2
		pd.Cost.SetupPerConcur = 3 * time.Second
		p, err := pm.Submit(pd)
		if err != nil {
			t.Fatal(err)
		}
		p.agent.scheduling = true
		w.pilots = append(w.pilots, p)
	}
	w.tm = NewTaskManager(w.engine, w.pilots...)

	// nShapes task shapes; each after the first may be drawn to cover an
	// earlier one in some dimensions, so dominated pairs are common.
	shapes := make([]cluster.Request, nShapes)
	for i := range shapes {
		nc := home[rng.Intn(len(home))]
		r := cluster.Request{Cores: 1 + rng.Intn(nc.Cores), MemGB: rng.Intn(nc.MemGB/2 + 1)}
		if nc.GPUs > 0 && rng.Intn(3) == 0 {
			r.GPUs = 1 + rng.Intn(nc.GPUs)
		}
		if i > 0 && rng.Intn(2) == 0 {
			r = shapes[rng.Intn(i)]
			switch rng.Intn(3) {
			case 0:
				r.Cores += 1 + rng.Intn(4)
			case 1:
				r.GPUs++
			default:
				r.MemGB += 1 + rng.Intn(16)
			}
		}
		shapes[i] = r
	}

	var live []*Task // placed attempts that may be cancelled mid-pass
	submit := func() {
		r := shapes[rng.Intn(len(shapes))]
		dur := time.Duration(1+rng.Intn(120)) * time.Minute
		task, err := w.tm.Submit(TaskDescription{
			Name: "t", Cores: r.Cores, GPUs: r.GPUs, MemGB: r.MemGB,
			Work: WorkFunc(func(*ExecContext) (Result, error) {
				return Result{Phases: []Phase{{Name: "p", Duration: dur, BusyCores: r.Cores, BusyGPUs: r.GPUs}}}, nil
			}),
		})
		if err == nil {
			live = append(live, task)
		}
	}
	w.tm.OnState(func(task *Task, s TaskState) {
		if s != StateExecSetup {
			return
		}
		w.logf("place %s on %s/%d", task.ID, task.PilotID, task.Node())
		// Mid-pass events: an arrival (queued behind the pass), a release
		// of a running attempt, or a node transferred in.
		switch rng.Intn(16) {
		case 0, 1:
			submit()
		case 2:
			for _, v := range live {
				if v.State() == StateRunning {
					w.tm.Cancel(v)
					break
				}
			}
		case 3:
			w.pilots[rng.Intn(len(w.pilots))].GrowNode(randCap(), nil)
		}
	})

	nTasks := 60 + rng.Intn(140) + 3*nShapes
	upfront := rng.Intn(nTasks)
	for i := 0; i < upfront; i++ {
		submit()
	}
	for i := upfront; i < nTasks; i++ {
		w.engine.After(time.Duration(rng.Intn(24*60))*time.Minute, submit)
	}
	// Queued and placed attempts leave between passes too: cancelled, or
	// evicted and requeued with a fresh attempt.
	for i := rng.Intn(nTasks / 4); i > 0; i-- {
		w.engine.After(time.Duration(rng.Intn(24*60))*time.Minute, func() {
			if len(live) == 0 {
				return
			}
			v := live[rng.Intn(len(live))]
			if rng.Intn(2) == 0 {
				w.tm.Cancel(v)
			} else if p := v.pilot; !v.State().Final() {
				p.EvictTask(v, "", "test eviction")
			}
		})
	}
	// Elastic transfers between events: grow a random node in, or shrink
	// an idle grown one out. Home nodes stay, so every queued task can
	// still place once the stream drains.
	for i := rng.Intn(8); i > 0; i-- {
		w.engine.After(time.Duration(rng.Intn(24*60))*time.Minute, func() {
			p := w.pilots[rng.Intn(len(w.pilots))]
			if rng.Intn(2) == 0 {
				p.GrowNode(randCap(), nil)
				return
			}
			home := len(p.Description().Nodes)
			for _, id := range p.Cluster().TransferableNodes() {
				if id >= home {
					if _, _, err := p.ShrinkNode(id); err != nil {
						t.Fatal(err)
					}
					return
				}
			}
		})
	}
	// Fault injection never ends on its own; stop it once the stream is
	// long over so the engine drains.
	w.engine.After(7*24*time.Hour, func() {
		for _, p := range w.pilots {
			p.StopFaultInjection()
		}
	})
	return w
}

// TestSubmissionPassMatchesReference drives the agent's pass and the
// naive reference over identical randomized simulations with 1–6 task
// shapes and requires the same placements (task, pilot, node, virtual
// time) and the same queue after every pass.
func TestSubmissionPassMatchesReference(t *testing.T) {
	for _, policy := range []string{"fifo", "backfill"} {
		for trial := int64(0); trial < 40; trial++ {
			t.Run(fmt.Sprintf("%s/trial%d", policy, trial), func(t *testing.T) {
				comparePasses(t, policy, trial, 1+int(trial%6))
			})
		}
	}
}

// TestSubmissionPassMatchesReferenceManyShapes runs the differential
// past the agent's shape table, where late shapes go unmemoized and the
// pass must never stop early.
func TestSubmissionPassMatchesReferenceManyShapes(t *testing.T) {
	for trial := int64(0); trial < 8; trial++ {
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			comparePasses(t, "backfill", 100+trial, 2*maxShapes)
		})
	}
}

func comparePasses(t *testing.T, policy string, trial int64, nShapes int) {
	got := newPassWorld(t, policy, trial, nShapes, (*agent).schedulePass)
	got.drive(t)
	want := newPassWorld(t, policy, trial, nShapes, referencePass)
	want.drive(t)
	for i := 0; i < len(got.log) && i < len(want.log); i++ {
		if got.log[i] != want.log[i] {
			t.Fatalf("diverged at log line %d:\n got: %s\nwant: %s", i, got.log[i], want.log[i])
		}
	}
	if len(got.log) != len(want.log) {
		t.Fatalf("log lengths differ: got %d, want %d", len(got.log), len(want.log))
	}
	// Work left queued is starved by resubmit-elsewhere exclusions: under
	// backfill every leftover task avoids some node, under fifo at least
	// the head does.
	for _, p := range got.pilots {
		for i, e := range p.agent.mergedQueue() {
			if len(e.task.avoidNodes) == 0 && (policy == "backfill" || i == 0) {
				t.Fatalf("%s ended with %s queued and no exclusions", p.ID, e.task.ID)
			}
		}
	}
}

// TestSubmissionPassInternsCoveringShapes pins the memo's bookkeeping on
// the stage mix's shapes and the lanes: a pass over a blocked queue
// leaves every lane, its entries and its backing array where they were.
func TestSubmissionPassInternsCoveringShapes(t *testing.T) {
	pd := defaultPD()
	pd.Policy = "backfill"
	h := newHarness(t, pd)
	h.tm.MustSubmit(TaskDescription{Name: "wide", Cores: 28, GPUs: 4, Work: sleepWork("w", 100*time.Hour, 28, 4)})
	mix := []cluster.Request{{Cores: 1}, {Cores: 8}, {Cores: 2, GPUs: 1}}
	for i := 0; i < 300; i++ {
		r := mix[i%3]
		h.tm.MustSubmit(TaskDescription{Name: "q", Cores: r.Cores, GPUs: r.GPUs, Work: sleepWork("q", time.Hour, r.Cores, r.GPUs)})
	}
	h.engine.RunUntil(simclock.Time(30 * time.Minute))
	a := h.pilot.agent
	if len(a.shapes) != 4 || len(a.lanes) != 4 {
		t.Fatalf("interned %d shapes in %d lanes, want 4", len(a.shapes), len(a.lanes))
	}
	// Every shape covers 1c, so a 1c miss marks them all, including the
	// shapes interned after 1c; 8c and 2c+1g are covered only by
	// themselves and the wide 28c+4g shape.
	for _, r := range mix {
		s := a.shapeOf(r)
		if s == noShape {
			t.Fatalf("%+v not interned", r)
		}
		q := a.lanes[s].queued()
		if len(q) != 100 {
			t.Fatalf("lane of %+v holds %d tasks, want 100", r, len(q))
		}
		for _, e := range q {
			if requestOf(e.task) != r {
				t.Fatalf("lane of %+v holds a task of %+v", r, requestOf(e.task))
			}
		}
		want := 1<<s | 1<<0
		if r == (cluster.Request{Cores: 1}) {
			want = 1<<len(a.shapes) - 1
		}
		if a.covers[s] != uint64(want) {
			t.Fatalf("covers[%+v] = %b, want %b", r, a.covers[s], want)
		}
	}
	type snapshot struct {
		entries []laneEntry
		array   *laneEntry
		head    int
	}
	var before []snapshot
	for l := range a.allLanes {
		before = append(before, snapshot{slices.Clone(l.queued()), unsafe.SliceData(l.buf), l.head})
	}
	a.blocked = false
	a.schedule()
	i := 0
	for l := range a.allLanes {
		b := before[i]
		if unsafe.SliceData(l.buf) != b.array || l.head != b.head {
			t.Fatalf("a pass that placed nothing moved lane %d", i)
		}
		if !slices.Equal(l.queued(), b.entries) {
			t.Fatalf("lane %d changed by a pass that placed nothing", i)
		}
		i++
	}
	if a.depth != 300 {
		t.Fatalf("queue depth %d, want 300", a.depth)
	}
	if !a.blocked {
		t.Fatal("blocked pass did not latch the watermark")
	}
}

// TestFinishPassKeepsWidestGapInPlace pins the per-lane compaction's cost
// rule: the survivors in the widest gap between started tasks stay in
// place and only the shorter runs around it move. A lane whose front
// moves is resliced, and slides back to the start of its array before it
// grows.
func TestFinishPassKeepsWidestGapInPlace(t *testing.T) {
	for _, tc := range []struct {
		holes []int32
		still int // a lane index whose slot must not move
	}{
		{[]int32{1}, 9},    // near the head: only entry 0 shifts
		{[]int32{8}, 0},    // near the tail: only entry 9 shifts
		{[]int32{2, 7}, 3}, // both ends move; entries 3–6 stay
	} {
		buf := make([]laneEntry, 10)
		for i := range buf {
			buf[i] = laneEntry{task: &Task{ID: fmt.Sprint(i), state: StateScheduling}, seq: uint64(i)}
		}
		want := slices.Clone(buf)
		for _, h := range slices.Backward(tc.holes) {
			want = slices.Delete(want, int(h), int(h)+1)
		}
		stay := buf[tc.still]
		l := lane{buf: buf, holes: slices.Clone(tc.holes)}
		if got := l.drop(); got != len(tc.holes) {
			t.Fatalf("holes %v: dropped %d", tc.holes, got)
		}
		if !slices.Equal(l.queued(), want) {
			t.Fatalf("holes %v: lane %v, want %v", tc.holes, l.queued(), want)
		}
		if buf[tc.still] != stay {
			t.Fatalf("holes %v: entry %d moved", tc.holes, tc.still)
		}
		if len(l.holes) != 0 {
			t.Fatalf("holes %v: drop left holes %v", tc.holes, l.holes)
		}
		if l.head == 0 {
			continue
		}
		// The lane was resliced from the front: once its array is full,
		// the next push slides it back instead of growing the array.
		for len(l.buf) < cap(l.buf) {
			l.push(laneEntry{task: &Task{ID: "pad"}, seq: 100})
		}
		l.push(laneEntry{task: &Task{ID: "last"}, seq: 101})
		if unsafe.SliceData(l.buf) != unsafe.SliceData(buf) {
			t.Fatalf("holes %v: push grew a lane with room at its front", tc.holes)
		}
		if l.head != 0 || !slices.Equal(l.queued()[:len(want)], want) {
			t.Fatalf("holes %v: push did not slide the lane back in order", tc.holes)
		}
	}
}

// BenchmarkBlockedBackfillPass times one forced backfill pass over a
// blocked queue of the stage mix's three shapes (1c, 8c, 2c+1g) against
// a saturated 64-node ledger, at two queue depths. With the failed-shape
// memo the pass stops after one miss per shape, so ns/op does not grow
// with depth; offering every task in turn grows linearly.
func BenchmarkBlockedBackfillPass(b *testing.B) {
	for _, depth := range []int{256, 4096} {
		b.Run(fmt.Sprintf("depth%d", depth), func(b *testing.B) {
			pd := defaultPD()
			pd.Machine = cluster.AmarelCluster(64)
			pd.Policy = "backfill"
			h := newHarness(b, pd)
			for i := 0; i < pd.Machine.Nodes; i++ {
				h.tm.MustSubmit(TaskDescription{Name: "wide", Cores: 28, GPUs: 4, Work: sleepWork("w", 100*time.Hour, 28, 4)})
			}
			mix := []cluster.Request{{Cores: 8}, {Cores: 2, GPUs: 1}, {Cores: 1}}
			for i := 0; i < depth; i++ {
				r := mix[i%len(mix)]
				h.tm.MustSubmit(TaskDescription{Name: "q", Cores: r.Cores, GPUs: r.GPUs, Work: sleepWork("q", time.Hour, r.Cores, r.GPUs)})
			}
			h.engine.RunUntil(simclock.Time(30 * time.Minute))
			a := h.pilot.agent
			if a.depth != depth {
				b.Fatalf("queue depth %d, want %d", a.depth, depth)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a.blocked = false
				a.schedule()
			}
		})
	}
}

// TestQueuedOrderAcrossLanes interleaves three shapes in the queue and
// cancels a task from the middle of one lane; every reader of the whole
// queue must still see submission order: QueuedRequests, the fit-ranking
// policies' queue view, and the unwind order of failAll.
func TestQueuedOrderAcrossLanes(t *testing.T) {
	mix := []cluster.Request{{Cores: 1}, {Cores: 8}, {Cores: 2, GPUs: 1}}
	// setup places a wide task that fills the node, then queues twelve
	// tasks cycling through mix and cancels the second 8-core one. It
	// returns the wide task and the queued tasks in submission order.
	setup := func(t *testing.T, policy string) (*harness, *Task, []*Task) {
		pd := defaultPD()
		pd.Policy = policy
		h := newHarness(t, pd)
		wide := h.tm.MustSubmit(TaskDescription{Name: "wide", Cores: 28, GPUs: 4, Work: sleepWork("w", 100*time.Hour, 28, 4)})
		h.engine.RunUntil(simclock.Time(30 * time.Minute))
		if wide.State() != StateRunning {
			t.Fatalf("wide task %v, want RUNNING", wide.State())
		}
		var queued []*Task
		for i := 0; i < 12; i++ {
			r := mix[i%3]
			queued = append(queued, h.tm.MustSubmit(TaskDescription{Name: "q", Cores: r.Cores, GPUs: r.GPUs, Work: sleepWork("q", time.Hour, r.Cores, r.GPUs)}))
		}
		h.tm.Cancel(queued[4])
		queued = slices.Delete(queued, 4, 5)
		a := h.pilot.agent
		if n := len(a.lanes[a.shapeOf(mix[1])].queued()); n != 3 {
			t.Fatalf("8-core lane holds %d tasks after the cancel, want 3", n)
		}
		if a.QueueLen() != len(queued) {
			t.Fatalf("QueueLen %d, want %d", a.QueueLen(), len(queued))
		}
		return h, wide, queued
	}
	uids := func(tasks []*Task) []uint64 {
		var out []uint64
		for _, task := range tasks {
			out = append(out, task.UID)
		}
		return out
	}

	t.Run("QueuedRequests", func(t *testing.T) {
		h, _, queued := setup(t, "backfill")
		var want []cluster.Request
		for _, task := range queued {
			want = append(want, requestOf(task))
		}
		if got := h.pilot.QueuedRequests(); !slices.Equal(got, want) {
			t.Fatalf("QueuedRequests %v, want %v", got, want)
		}
	})
	for _, policy := range []string{"bestfit", "worstfit", "largest"} {
		t.Run(policy, func(t *testing.T) {
			h, _, queued := setup(t, policy)
			a := h.pilot.agent
			a.blocked = false
			a.schedule()
			var got []uint64
			for _, item := range a.scratchItems {
				got = append(got, item.UID)
			}
			if want := uids(queued); !slices.Equal(got, want) {
				t.Fatalf("policy saw the queue as UIDs %v, want %v", got, want)
			}
		})
	}
	t.Run("failAll", func(t *testing.T) {
		h, wide, queued := setup(t, "backfill")
		last := queued[len(queued)-1].UID
		var unwound []uint64
		h.tm.OnState(func(task *Task, s TaskState) {
			if s == StateFailed && task.UID <= last {
				unwound = append(unwound, task.UID)
			}
		})
		h.pilot.expire()
		if want := append(uids(queued), wide.UID); !slices.Equal(unwound, want) {
			t.Fatalf("unwound UIDs %v, want %v", unwound, want)
		}
	})
}
