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

	"impress/internal/cluster"
	"impress/internal/fault"
	"impress/internal/simclock"
)

// referencePass is the naive submission-order pass: it offers every
// queued task capacity in submission order (stopping at the first miss
// under fifo), copies the survivors into a fresh queue and appends the
// mid-pass arrivals, with the same blocked-latch rules as the agent.
func referencePass(a *agent) {
	if !a.pilot.Active() || len(a.queue) == 0 {
		return
	}
	if a.blocked && a.cluster.FreedStamp() == a.blockedStamp {
		return
	}
	a.blocked = false
	n := len(a.queue)
	remaining := make([]queueEntry, 0, n)
	continueOnBlock := a.policy.ContinueOnBlock()
	blocked := false
	for i := 0; i < n; i++ {
		q := a.queue[i]
		if blocked && !continueOnBlock {
			remaining = append(remaining, a.queue[i:n]...)
			break
		}
		alloc := a.allocate(q.task)
		if alloc == nil {
			blocked = true
			remaining = append(remaining, q)
			continue
		}
		a.startSetup(q.task, alloc)
	}
	tail := a.queue[n:]
	remaining = append(remaining, tail...)
	a.queue = remaining
	if len(tail) == 0 && len(remaining) > 0 {
		a.blocked = true
		a.blockedStamp = a.cluster.FreedStamp()
	}
	a.noteQueueDepth()
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
			ids := make([]string, len(a.queue))
			for i, q := range a.queue {
				ids[i] = q.task.ID
			}
			w.logf("pass %s queue [%s]", p.ID, strings.Join(ids, " "))
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
		for i, q := range p.agent.queue {
			if len(q.task.avoidNodes) == 0 && (policy == "backfill" || i == 0) {
				t.Fatalf("%s ended with %s queued and no exclusions", p.ID, q.task.ID)
			}
		}
	}
}

// TestSubmissionPassInternsCoveringShapes pins the memo's bookkeeping on
// the stage mix's shapes and the in-place queue: a pass over a blocked
// queue leaves every task, and the queue's backing array, where it was.
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
	if len(a.shapes) != 4 {
		t.Fatalf("interned %d shapes, want 4", len(a.shapes))
	}
	// Every shape covers 1c, so a 1c miss marks them all, including the
	// shapes interned after 1c; 8c and 2c+1g are covered only by
	// themselves and the wide 28c+4g shape.
	for i, r := range mix {
		s := a.queue[i].shape
		if a.shapes[s] != r {
			t.Fatalf("queue[%d] interned as %+v, want %+v", i, a.shapes[s], r)
		}
		want := 1<<s | 1<<0
		if r == (cluster.Request{Cores: 1}) {
			want = 1<<len(a.shapes) - 1
		}
		if a.covers[s] != uint64(want) {
			t.Fatalf("covers[%+v] = %b, want %b", r, a.covers[s], want)
		}
	}
	before := slices.Clone(a.queue)
	head := &a.queue[0]
	a.blocked = false
	a.schedule()
	if len(a.queue) != len(before) || &a.queue[0] != head {
		t.Fatal("a pass that placed nothing moved the queue")
	}
	for i := range before {
		if a.queue[i] != before[i] {
			t.Fatalf("queue[%d] changed by a pass that placed nothing", i)
		}
	}
	if !a.blocked {
		t.Fatal("blocked pass did not latch the watermark")
	}
}

// TestFinishPassKeepsWidestGapInPlace pins the compaction's cost rule:
// the survivors in the widest gap between started tasks stay in place
// and only the shorter runs around it move.
func TestFinishPassKeepsWidestGapInPlace(t *testing.T) {
	a := newHarness(t, defaultPD()).pilot.agent
	a.rec = nil
	for _, tc := range []struct {
		holes []int
		still int // a queue index whose slot must not move
	}{
		{[]int{1}, 9},    // near the head: only queue[0] shifts
		{[]int{8}, 0},    // near the tail: only queue[9] shifts
		{[]int{2, 7}, 3}, // both ends move; queue[3:7] stays
	} {
		buf := make([]queueEntry, 10)
		for i := range buf {
			buf[i] = queueEntry{task: &Task{ID: fmt.Sprint(i), state: StateScheduling}, shape: noShape}
			a.countQueued(buf[i].shape, 1)
		}
		want := slices.Clone(buf)
		for _, h := range slices.Backward(tc.holes) {
			want = slices.Delete(want, h, h+1)
		}
		stay := buf[tc.still]
		a.queue = buf
		a.finishPass(len(buf), tc.holes)
		if !slices.Equal(a.queue, want) {
			t.Fatalf("holes %v: queue %v, want %v", tc.holes, a.queue, want)
		}
		if buf[tc.still] != stay {
			t.Fatalf("holes %v: queue[%d] moved", tc.holes, tc.still)
		}
		a.queue = nil
		a.unshaped = 0
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
			if len(a.queue) != depth {
				b.Fatalf("queue depth %d, want %d", len(a.queue), depth)
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
