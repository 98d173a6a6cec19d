package pilot

import (
	"slices"
	"testing"
	"time"

	"impress/internal/cluster"
	"impress/internal/simclock"
)

// TestBlockedSchedulePassAllocationFree guards the agent's incremental
// scheduling: with a saturated cluster and a blocked queue, re-running
// the scheduler must allocate nothing — both when the freed-capacity
// watermark short-circuits the pass outright (any policy), and when the
// pass actually executes a submission-order policy against the agent's
// warm scratch buffers. This is the fence against future PRs
// re-introducing per-pass garbage (queue views, ledger snapshots,
// remaining-queue rebuilds).
func TestBlockedSchedulePassAllocationFree(t *testing.T) {
	for _, policy := range []string{"fifo", "backfill", "bestfit", "worstfit", "largest"} {
		t.Run(policy, func(t *testing.T) {
			pd := defaultPD()
			pd.Policy = policy
			h := newHarness(t, pd)
			// One task fills the node for a long time; the rest block.
			h.tm.MustSubmit(TaskDescription{Name: "wide", Cores: 28, GPUs: 4, Work: sleepWork("w", 100*time.Hour, 28, 4)})
			for i := 0; i < 8; i++ {
				h.tm.MustSubmit(TaskDescription{Name: "queued", Cores: 4, Work: sleepWork("q", time.Hour, 4, 0)})
			}
			// Run until the wide task occupies the node and the queue is
			// provably blocked (the passes so far warmed the scratch).
			h.engine.RunUntil(simclock.Time(30 * time.Minute))
			a := h.pilot.agent
			// Which tasks block depends on the policy (worstfit places the
			// small ones and blocks the wide one); all that matters here is
			// that something is queued against a saturated ledger.
			if a.depth == 0 {
				t.Fatal("queue drained; expected blocked tasks against a saturated ledger")
			}

			// Watermark path: nothing freed since the last blocked pass,
			// so every policy must skip at zero cost.
			if !a.blocked {
				t.Fatal("agent did not latch the blocked watermark")
			}
			if avg := testing.AllocsPerRun(200, func() { a.schedule() }); avg != 0 {
				t.Fatalf("watermark-skipped schedule allocates %.1f objects, want 0", avg)
			}

			// Forced full pass: clear the latch each run so schedulePass
			// really offers capacity to the queue and compacts it.
			// Fit-ranking policies allocate inside Policy.Order (their
			// ranked index slice is part of the policy contract), so the
			// zero-alloc guarantee covers the submission-order policies —
			// the defaults every golden trace runs under.
			if policy == "fifo" || policy == "backfill" {
				if avg := testing.AllocsPerRun(200, func() {
					a.blocked = false
					a.schedule()
				}); avg != 0 {
					t.Fatalf("full blocked schedulePass allocates %.1f objects, want 0", avg)
				}
			}
			if policy != "backfill" {
				return
			}
			// Exclusions disable the failed-shape memo, so this backfill
			// pass offers every queued task and compacts every lane.
			for _, e := range a.mergedQueue() {
				e.task.avoidNodes = []int{0}
			}
			if avg := testing.AllocsPerRun(200, func() {
				a.blocked = false
				a.schedule()
			}); avg != 0 {
				t.Fatalf("backfill pass offering every task allocates %.1f objects, want 0", avg)
			}
			// Compaction of a lane after a pass that started every other
			// queued task. The recorder is detached because a changed
			// queue depth books a sample.
			l := &a.lanes[a.shapeOf(cluster.Request{Cores: 4})]
			queued := slices.Clone(l.queued())
			if len(queued) != 8 {
				t.Fatalf("lane of the blocked shape holds %d tasks, want 8", len(queued))
			}
			buf := make([]laneEntry, len(queued))
			var holes []int32
			for i := 0; i < len(buf); i += 2 {
				holes = append(holes, int32(i))
			}
			rec := a.rec
			a.rec = nil
			defer func() { a.rec = rec }()
			if avg := testing.AllocsPerRun(200, func() {
				copy(buf, queued)
				l.buf, l.head = buf, 0
				l.holes = append(l.holes[:0], holes...)
				a.depth = len(buf) // finishPass uncounts the holes
				a.finishPass(a.depth)
			}); avg != 0 {
				t.Fatalf("compaction allocates %.1f objects, want 0", avg)
			}
			got := l.queued()
			if len(got) != len(queued)/2 || a.depth != len(got) {
				t.Fatalf("compaction kept %d of %d tasks (depth %d), want %d", len(got), len(queued), a.depth, len(queued)/2)
			}
			for i, e := range got {
				if e != queued[2*i+1] {
					t.Fatalf("compacted lane[%d] = %s, want %s", i, e.task.ID, queued[2*i+1].task.ID)
				}
			}
			// The slots of the backing array outside the lane must not
			// keep started tasks alive.
			for i, e := range buf {
				if (i < l.head || i >= len(l.buf)) && e.task != nil {
					t.Fatalf("dead lane slot %d still holds %s", i, e.task.ID)
				}
			}
		})
	}
}

// TestBlockedPassSkipIsBehaviourNeutral proves the watermark's safety
// property end to end: releasing capacity un-latches the skip, and the
// queue drains exactly as it would have without the optimization.
func TestBlockedPassSkipIsBehaviourNeutral(t *testing.T) {
	h := newHarness(t, defaultPD())
	h.tm.MustSubmit(TaskDescription{Name: "wide", Cores: 28, GPUs: 4, Work: sleepWork("w", time.Hour, 28, 4)})
	var queued []*Task
	for i := 0; i < 4; i++ {
		queued = append(queued, h.tm.MustSubmit(TaskDescription{
			Name: "queued", Cores: 7, Work: sleepWork("q", time.Hour, 7, 0),
		}))
	}
	h.engine.Run()
	for _, task := range queued {
		if task.State() != StateDone {
			t.Fatalf("task %s ended %v, want DONE", task.ID, task.State())
		}
	}
}
