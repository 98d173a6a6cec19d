package pilot

// Unit tests of the fault subsystem at the pilot-runtime level: injected
// task faults, node crashes with repair windows, fault-model walltime
// expiry, and the recovery policies' resubmission mechanics.

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"impress/internal/cluster"
	"impress/internal/fault"
	"impress/internal/fleet"
	"impress/internal/simclock"
	"impress/internal/trace"
)

// faultHarness builds a pilot with the given fault spec and recovery
// policy over a 2-node machine.
func faultHarness(t *testing.T, spec fault.Spec, recovery string, nodes int) *harness {
	t.Helper()
	pd := PilotDescription{
		Machine:  cluster.Spec{Name: "faulty", Nodes: nodes, CoresPerNode: 8, GPUsPerNode: 2, MemGBPerNode: 32},
		Cost:     testCost(),
		Policy:   "backfill",
		Fault:    spec,
		Recovery: recovery,
		Seed:     7,
	}
	return newHarness(t, pd)
}

func TestUnknownRecoveryRejected(t *testing.T) {
	engine := simclock.New()
	pm := NewPilotManager(engine, nil)
	pd := defaultPD()
	pd.Recovery = "pray"
	if _, err := pm.Submit(pd); err == nil {
		t.Fatal("unknown recovery policy accepted")
	}
	pd = defaultPD()
	pd.Fault = fault.Spec{TaskFailProb: -2}
	if _, err := pm.Submit(pd); err == nil {
		t.Fatal("invalid fault spec accepted")
	}
}

func TestRecoveryDefaultsToNone(t *testing.T) {
	h := newHarness(t, defaultPD())
	if got := h.pilot.Recovery(); got != "none" {
		t.Fatalf("Recovery() = %q, want none", got)
	}
}

// TestInjectedFaultTerminalWithoutRecovery: with recovery "none" a
// fault-killed task ends FAILED, the ledger unwinds exactly, and nothing
// is resubmitted.
func TestInjectedFaultTerminalWithoutRecovery(t *testing.T) {
	h := faultHarness(t, fault.Spec{TaskFailProb: 0.999}, "none", 1)
	var tasks []*Task
	for i := 0; i < 6; i++ {
		tasks = append(tasks, h.tm.MustSubmit(TaskDescription{
			Name: fmt.Sprintf("t%d", i), Cores: 4,
			Work: sleepWork("x", time.Hour, 4, 0),
		}))
	}
	h.engine.Run()

	failed := 0
	for _, task := range tasks {
		if !task.State().Final() {
			t.Fatalf("task %s stuck in %v", task.ID, task.State())
		}
		if task.State() == StateFailed {
			failed++
			if task.FaultKind != fault.KindTask {
				t.Fatalf("task %s fault kind %v", task.ID, task.FaultKind)
			}
			if task.WillRetry() {
				t.Fatalf("task %s planned a retry under recovery none", task.ID)
			}
		}
	}
	if failed == 0 {
		t.Fatal("no task failed at fail probability 0.999")
	}
	if h.tm.Count() != 6 {
		t.Fatalf("resubmissions appeared under recovery none: %d tasks", h.tm.Count())
	}
	clu := h.pilot.Cluster()
	if clu.FreeCores() != 8 || clu.FreeGPUs() != 2 {
		t.Fatal("ledger not unwound after injected faults")
	}
	tl := h.tm.FaultTallies()
	if tl.ByKind[fault.KindTask] != failed || tl.Terminal != failed || tl.Resubmitted != 0 {
		t.Fatalf("tallies %+v, want %d terminal task faults", tl, failed)
	}
}

// TestRetryRecoversFaults: under "retry", fault-killed attempts are
// resubmitted as fresh tasks sharing the Origin, and the trace carries
// FAILED records for every dead attempt.
func TestRetryRecoversFaults(t *testing.T) {
	h := faultHarness(t, fault.Spec{TaskFailProb: 0.6}, "retry", 1)
	var chains []*Task
	for i := 0; i < 10; i++ {
		chains = append(chains, h.tm.MustSubmit(TaskDescription{
			Name: fmt.Sprintf("t%d", i), Cores: 2,
			Work: sleepWork("x", 30*time.Minute, 2, 0),
		}))
	}
	h.engine.Run()

	tl := h.tm.FaultTallies()
	if tl.ByKind[fault.KindTask] == 0 {
		t.Fatal("no faults injected at probability 0.6")
	}
	if tl.Resubmitted == 0 {
		t.Fatal("retry policy never resubmitted")
	}
	if tl.ByKind[fault.KindTask] != tl.Resubmitted+tl.Terminal {
		t.Fatalf("tallies do not balance: %+v", tl)
	}
	// Attempt chains: every attempt number of a chain appears exactly
	// once, and the total task count is originals plus resubmissions.
	if h.tm.Count() != len(chains)+tl.Resubmitted {
		t.Fatalf("task count %d, want %d originals + %d resubmissions",
			h.tm.Count(), len(chains), tl.Resubmitted)
	}
	// Trace records exist for failed attempts and mark the fault kind.
	faultRecords := 0
	for _, tr := range h.rec.Tasks() {
		if tr.State == "FAILED" {
			if tr.Fault != "task" {
				t.Fatalf("failed record %s has fault %q", tr.ID, tr.Fault)
			}
			if tr.Attempt < 1 {
				t.Fatalf("failed record %s has attempt %d", tr.ID, tr.Attempt)
			}
			faultRecords++
		}
	}
	if faultRecords != tl.ByKind[fault.KindTask] {
		t.Fatalf("%d FAILED trace records, want %d", faultRecords, tl.ByKind[fault.KindTask])
	}
	clu := h.pilot.Cluster()
	if clu.FreeCores() != 8 || clu.FreeGPUs() != 2 {
		t.Fatal("ledger not unwound after retries")
	}
}

// TestBackoffDelaysResubmission: the second attempt starts at least the
// backoff base after the first failure.
func TestBackoffDelaysResubmission(t *testing.T) {
	h := faultHarness(t, fault.Spec{TaskFailProb: 0.999}, "backoff", 1)
	h.tm.MustSubmit(TaskDescription{
		Name: "slow", Cores: 2, Work: sleepWork("x", time.Hour, 2, 0),
	})
	var resubmitAt []simclock.Time
	var failedAt []simclock.Time
	h.tm.OnState(func(task *Task, s TaskState) {
		switch {
		case s == StateFailed:
			failedAt = append(failedAt, h.engine.Now())
		case s == StateSubmitted && task.Attempt > 1:
			resubmitAt = append(resubmitAt, h.engine.Now())
		}
	})
	h.engine.Run()
	if len(resubmitAt) == 0 {
		t.Fatal("backoff never resubmitted")
	}
	if gap := resubmitAt[0].Sub(failedAt[0]); gap < 15*time.Minute {
		t.Fatalf("first backoff gap %v, want >= 15m", gap)
	}
	if len(resubmitAt) >= 2 {
		if g1, g2 := resubmitAt[0].Sub(failedAt[0]), resubmitAt[1].Sub(failedAt[1]); g2 < 2*g1 {
			t.Fatalf("backoff not exponential: %v then %v", g1, g2)
		}
	}
}

// TestNodeCrashKillsResidentsAndRepairs: a crash fails every task on the
// node, the node takes no work during its repair window, and capacity
// returns afterwards.
func TestNodeCrashKillsResidentsAndRepairs(t *testing.T) {
	spec := fault.Spec{NodeMTBF: 3 * time.Hour, NodeRepair: 45 * time.Minute}
	h := faultHarness(t, spec, "retry", 2)
	clu := h.pilot.Cluster()

	// Keep the machine saturated with medium tasks so crashes always
	// have victims.
	for i := 0; i < 40; i++ {
		h.tm.MustSubmit(TaskDescription{
			Name: fmt.Sprintf("t%d", i), Cores: 4, GPUs: 1,
			Work: sleepWork("x", 2*time.Hour, 4, 1),
		})
	}
	h.tm.OnState(func(task *Task, s TaskState) {
		if s == StateExecSetup && clu.NodeIsDown(task.Node()) {
			t.Fatalf("task %s placed on down node %d", task.ID, task.Node())
		}
		if s == StateFailed && task.FaultKind == fault.KindNodeCrash && !clu.NodeIsDown(task.Node()) {
			t.Fatalf("task %s crash-killed on a live node", task.ID)
		}
	})

	h.engine.RunUntil(simclock.FromHours(24 * 14))
	h.pilot.StopFaultInjection()
	h.engine.Run()

	crashes, downtime := h.pilot.FaultCounts()
	if crashes == 0 {
		t.Fatal("no node crashed in two weeks at MTBF 3h")
	}
	// Downtime books what actually elapsed: at most one full repair
	// window per crash, less when StopFaultInjection cut one short.
	if downtime <= 0 || downtime > time.Duration(crashes)*45*time.Minute {
		t.Fatalf("downtime %v outside (0, crashes×45m] for %d crashes", downtime, crashes)
	}
	tl := h.tm.FaultTallies()
	if tl.ByKind[fault.KindNodeCrash] == 0 {
		t.Fatal("crashes never killed a resident task")
	}
	if clu.FreeCores() != 16 || clu.FreeGPUs() != 4 {
		t.Fatalf("ledger leaked across crashes: %d cores %d GPUs free", clu.FreeCores(), clu.FreeGPUs())
	}
	if len(clu.DownNodes()) != 0 {
		t.Fatal("nodes still down after StopFaultInjection")
	}
	end := h.engine.Now().Add(time.Minute)
	if trace.Sample(h.rec.CPUSeries(), end) != 0 || trace.Sample(h.rec.GPUSeries(), end) != 0 {
		t.Fatal("busy counters not unwound after crashes")
	}
}

// TestElsewhereAvoidsFailedNode: a resubmission under "elsewhere" never
// lands on the node whose crash killed the previous attempt.
func TestElsewhereAvoidsFailedNode(t *testing.T) {
	spec := fault.Spec{NodeMTBF: 2 * time.Hour, NodeRepair: 2 * time.Hour}
	h := faultHarness(t, spec, "elsewhere", 3)
	clu := h.pilot.Cluster()

	for i := 0; i < 30; i++ {
		h.tm.MustSubmit(TaskDescription{
			Name: fmt.Sprintf("t%d", i), Cores: 4,
			Work: sleepWork("x", 3*time.Hour, 4, 0),
		})
	}
	// Map each origin's last crash node; assert the next attempt avoids
	// it (node IDs stay valid: same pilot, 3 nodes, exclusion of one).
	lastCrashNode := make(map[string]int)
	h.tm.OnState(func(task *Task, s TaskState) {
		switch {
		case s == StateFailed && task.FaultKind == fault.KindNodeCrash && task.WillRetry():
			lastCrashNode[task.Origin] = task.Node()
		case s == StateExecSetup:
			if n, ok := lastCrashNode[task.Origin]; ok && task.Attempt > 1 && task.Node() == n {
				t.Fatalf("attempt %d of %s re-placed on failed node %d", task.Attempt, task.Origin, n)
			}
			if clu.NodeIsDown(task.Node()) {
				t.Fatalf("task %s placed on down node", task.ID)
			}
		}
	})
	h.engine.RunUntil(simclock.FromHours(24 * 14))
	h.pilot.StopFaultInjection()
	h.engine.Run()
	if len(lastCrashNode) == 0 {
		t.Fatal("no crash ever killed a retryable task")
	}
}

// TestElsewhereDropsStarvingExclusion: on a heterogeneous pilot whose
// only GPU node killed an attempt, "elsewhere" must not exclude that node
// forever. No other node can ever host the retry, so the exclusion is
// dropped and the retry runs on the node the first attempt failed on;
// under fifo, the CPU task queued behind it runs too.
func TestElsewhereDropsStarvingExclusion(t *testing.T) {
	caps := []cluster.NodeCapacity{{Cores: 8, GPUs: 1, MemGB: 32}, {Cores: 8, MemGB: 32}}
	h := newHarness(t, PilotDescription{
		Machine:  fleet.SpecFor("hetero", caps),
		Nodes:    caps,
		Cost:     testCost(),
		Recovery: "elsewhere",
		Seed:     7,
	})
	runs := 0
	gpu := h.tm.MustSubmit(TaskDescription{
		Name: "gpu", Cores: 2, GPUs: 1, MemGB: 8,
		Work: WorkFunc(func(ctx *ExecContext) (Result, error) {
			if runs++; runs == 1 {
				return Result{}, errors.New("payload crashed")
			}
			return sleepWork("gpu", time.Hour, 2, 1).Run(ctx)
		}),
	})
	var cpu *Task
	h.engine.After(30*time.Minute, func() {
		cpu = h.tm.MustSubmit(TaskDescription{Name: "cpu", Cores: 4, Work: sleepWork("cpu", time.Hour, 4, 0)})
	})
	var done []*Task
	var doneIDs []string
	h.tm.OnState(func(task *Task, s TaskState) {
		if s == StateDone {
			done = append(done, task)
			doneIDs = append(doneIDs, task.ID)
		}
	})
	h.engine.Run()

	if gpu.State() != StateFailed || !gpu.WillRetry() || gpu.Node() != 0 {
		t.Fatalf("first attempt: state %v, will retry %v, node %d; want a retried failure on node 0",
			gpu.State(), gpu.WillRetry(), gpu.Node())
	}
	if len(done) != 2 || done[0].Origin != gpu.Origin || done[0].Attempt != 2 || done[0].Node() != 0 ||
		done[1] != cpu {
		t.Fatalf("want the GPU retry done on node 0, then the CPU task; done = %v", doneIDs)
	}
}

// TestFaultWalltimeFailsAndResubmitsElsewhere: when a pilot's fault-model
// walltime expires, victims fail with KindWalltime and recovery may move
// them to a surviving pilot.
func TestFaultWalltimeFailsAndResubmitsElsewhere(t *testing.T) {
	engine := simclock.New()
	rec := trace.NewRecorder(16, 4, 0)
	pm := NewPilotManager(engine, rec)
	mk := func(wall time.Duration) *Pilot {
		p, err := pm.Submit(PilotDescription{
			Machine:  cluster.Spec{Name: "m", Nodes: 1, CoresPerNode: 8, GPUsPerNode: 2, MemGBPerNode: 32},
			Cost:     testCost(),
			Fault:    fault.Spec{Walltime: wall},
			Recovery: "retry",
			Seed:     11,
		})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	short := mk(2 * time.Hour)
	survivor := mk(200 * time.Hour)
	tm := NewTaskManager(engine, short, survivor)

	// Long tasks pinned to the short-walltime pilot: they cannot finish
	// before expiry and must migrate.
	var tasks []*Task
	for i := 0; i < 4; i++ {
		tasks = append(tasks, tm.MustSubmit(TaskDescription{
			Name: fmt.Sprintf("t%d", i), Cores: 4, Pilot: short.ID,
			Work: sleepWork("x", 5*time.Hour, 4, 0),
		}))
	}
	engine.Run()

	if short.State() != PilotDone {
		t.Fatal("short pilot did not expire")
	}
	tl := tm.FaultTallies()
	if tl.ByKind[fault.KindWalltime] == 0 {
		t.Fatal("walltime expiry killed nothing")
	}
	for _, task := range tasks {
		if task.State() != StateFailed || task.FaultKind != fault.KindWalltime {
			t.Fatalf("task %s state %v kind %v", task.ID, task.State(), task.FaultKind)
		}
		if !task.WillRetry() {
			t.Fatalf("task %s not resubmitted after walltime", task.ID)
		}
	}
	// Every logical chain ends on the survivor, successfully.
	done := 0
	for _, slot := range tm.tasks {
		if task := slot.task; task.State() == StateDone {
			if task.PilotID != survivor.ID {
				t.Fatalf("task %s completed on expired pilot", task.ID)
			}
			done++
		}
	}
	if done != len(tasks) {
		t.Fatalf("%d chains completed, want %d", done, len(tasks))
	}
	// Walltime expiry on a lone pilot is terminal instead.
	engine2 := simclock.New()
	pm2 := NewPilotManager(engine2, nil)
	lone, err := pm2.Submit(PilotDescription{
		Machine:  cluster.Spec{Name: "m", Nodes: 1, CoresPerNode: 8, GPUsPerNode: 0, MemGBPerNode: 32},
		Cost:     testCost(),
		Fault:    fault.Spec{Walltime: time.Hour},
		Recovery: "retry",
		Seed:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	tm2 := NewTaskManager(engine2, lone)
	task := tm2.MustSubmit(TaskDescription{Name: "t", Cores: 4, Work: sleepWork("x", 5*time.Hour, 4, 0)})
	engine2.Run()
	if task.State() != StateFailed {
		t.Fatalf("lone-pilot task state %v", task.State())
	}
	if n := tm2.Count(); n < 2 {
		t.Fatalf("no resubmission attempted before giving up (%d tasks)", n)
	}
	for _, slot := range tm2.tasks {
		if tk := slot.task; !tk.State().Final() {
			t.Fatalf("task %s not terminal after lone-pilot expiry", tk.ID)
		}
	}
}

// TestUnwindOrderSurvivesSwapRemove: finishing tasks swap-removes them
// from the agent's running slice, which leaves it out of UID order; a
// node crash and a walltime expiry must still unwind their victims in
// UID order.
func TestUnwindOrderSurvivesSwapRemove(t *testing.T) {
	for _, tc := range []struct {
		name   string
		final  TaskState
		unwind func(*Pilot)
	}{
		{"failNode", StateFailed, func(p *Pilot) {
			p.agent.cluster.SetNodeDown(0)
			p.agent.failNode(0)
		}},
		{"expire", StateFailed, (*Pilot).expire},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := newHarness(t, defaultPD())
			// The two oldest tasks finish first; the youngest take
			// their slots.
			for i := 0; i < 6; i++ {
				d := 10 * time.Hour
				if i < 2 {
					d = 10 * time.Minute
				}
				h.tm.MustSubmit(TaskDescription{Name: "t", Cores: 1, Work: sleepWork("x", d, 1, 0)})
			}
			h.engine.RunUntil(simclock.Time(time.Hour))
			a := h.pilot.agent
			var uids []uint64
			for _, ex := range a.running {
				uids = append(uids, ex.task.UID)
			}
			if len(uids) != 4 || slices.IsSorted(uids) {
				t.Fatalf("running UIDs %v, want four out of order", uids)
			}
			var unwound []uint64
			h.tm.OnState(func(task *Task, s TaskState) {
				if s == tc.final {
					unwound = append(unwound, task.UID)
				}
			})
			tc.unwind(h.pilot)
			if want := []uint64{3, 4, 5, 6}; !slices.Equal(unwound, want) {
				t.Fatalf("unwound UIDs %v, want %v", unwound, want)
			}
		})
	}
}

// TestCancelChainAbortsRetries: cancelling a logical task mid-chain
// drops its pending resubmission (a backoff retry scheduled but not yet
// fired) so no further attempt ever appears — the hook the coordinator
// uses to clean up killed pipelines.
func TestCancelChainAbortsRetries(t *testing.T) {
	h := faultHarness(t, fault.Spec{TaskFailProb: 0.999}, "backoff", 1)
	task := h.tm.MustSubmit(TaskDescription{
		Name: "doomed", Cores: 2, Work: sleepWork("x", time.Hour, 2, 0),
	})
	// Cancel the chain right after the first failure, while the backoff
	// resubmission is pending on the timeline.
	h.tm.OnState(func(tk *Task, s TaskState) {
		if s == StateFailed && tk.Attempt == 1 {
			h.engine.Defer(func() {
				h.tm.CancelChain(task, "chain aborted by test")
			})
		}
	})
	h.engine.Run()
	if task.State() != StateFailed || !task.WillRetry() {
		t.Fatalf("first attempt state %v willRetry %v", task.State(), task.WillRetry())
	}
	if n := h.tm.Count(); n != 1 {
		t.Fatalf("cancelled chain still produced %d tasks", n)
	}
	// Cancelling a running attempt unwinds it too.
	h2 := faultHarness(t, fault.Spec{TaskFailProb: 0}, "retry", 1)
	t2 := h2.tm.MustSubmit(TaskDescription{Name: "live", Cores: 2, Work: sleepWork("x", time.Hour, 2, 0)})
	h2.engine.After(10*time.Minute, func() { h2.tm.CancelChain(t2, "abort") })
	h2.engine.Run()
	if t2.State() != StateCanceled {
		t.Fatalf("live attempt state %v, want CANCELED", t2.State())
	}
	if h2.pilot.Cluster().FreeCores() != 8 {
		t.Fatal("ledger not unwound after CancelChain")
	}
}

// TestFaultDeterminism: the same fault-injected workload replays
// byte-identically — timelines, attempts, tallies.
func TestFaultDeterminism(t *testing.T) {
	run := func() string {
		h := faultHarness(t, fault.Spec{TaskFailProb: 0.4, NodeMTBF: 4 * time.Hour}, "elsewhere", 2)
		for i := 0; i < 25; i++ {
			h.tm.MustSubmit(TaskDescription{
				Name: fmt.Sprintf("t%d", i), Cores: 2 + i%6, GPUs: i % 2,
				Work: sleepWork("x", time.Duration(20+i*7)*time.Minute, 2, i%2),
			})
		}
		h.engine.RunUntil(simclock.FromHours(24 * 30))
		h.pilot.StopFaultInjection()
		h.engine.Run()
		var sb strings.Builder
		for _, tr := range h.rec.Tasks() {
			fmt.Fprintf(&sb, "%s %d %d %d %d %s %d %d %s\n", tr.ID,
				int64(tr.Submitted), int64(tr.SetupAt), int64(tr.RunAt), int64(tr.EndedAt),
				tr.State, tr.Attempt, tr.Node, tr.Fault)
		}
		fmt.Fprintf(&sb, "%+v\n", h.tm.FaultTallies())
		return sb.String()
	}
	if a, b := run(), run(); a != b {
		t.Fatal("fault-injected run is not deterministic")
	}
}
