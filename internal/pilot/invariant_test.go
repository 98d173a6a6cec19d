package pilot

// Scheduler invariant suite: a randomized, property-style harness that
// drives every registered scheduling policy over random workloads, seeds,
// machine shapes, cancellations, and walltimes, and asserts the
// properties no policy is allowed to break:
//
//   - the capacity ledger never goes negative and never exceeds the
//     pilot's cores/GPUs/memory,
//   - no task is lost (every submission reaches exactly one terminal
//     state) and none is placed twice,
//   - cancellation unwinds busy-resource deltas exactly (the ledger and
//     the busy series both return to empty),
//   - strict FIFO never starves the queue head: tasks enter exec-setup
//     in submission order.
//
// The randomness is seeded per (policy, trial), so failures reproduce.

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"impress/internal/cluster"
	"impress/internal/fault"
	"impress/internal/sched"
	"impress/internal/simclock"
	"impress/internal/trace"
)

func TestSchedulerInvariants(t *testing.T) {
	const trials = 6
	for _, polName := range sched.Names() {
		for trial := 0; trial < trials; trial++ {
			t.Run(fmt.Sprintf("%s/trial%d", polName, trial), func(t *testing.T) {
				runInvariantTrial(t, polName, int64(trial))
			})
		}
	}
}

func runInvariantTrial(t *testing.T, polName string, trial int64) {
	rng := rand.New(rand.NewSource(trial*1000003 + int64(len(polName))*7919))

	spec := cluster.Spec{
		Name:         "rand",
		Nodes:        1 + rng.Intn(3),
		CoresPerNode: 4 + rng.Intn(28),
		GPUsPerNode:  rng.Intn(5),
		MemGBPerNode: 16 + rng.Intn(112),
	}
	pd := PilotDescription{
		Machine: spec,
		Cost:    testCost(),
		Policy:  polName,
		Seed:    uint64(trial + 1),
	}
	pd.Cost.JitterFrac = 0.2
	pd.Cost.SetupPerConcur = 5 * time.Second
	if rng.Intn(3) == 0 {
		pd.Fault.Walltime = time.Duration(2+rng.Intn(6)) * time.Hour
	}

	engine := simclock.New()
	rec := trace.NewRecorder(spec.TotalCores(), spec.TotalGPUs(), 0)
	pm := NewPilotManager(engine, rec)
	p, err := pm.Submit(pd)
	if err != nil {
		t.Fatal(err)
	}
	tm := NewTaskManager(engine, p)

	totalCores, totalGPUs, totalMem := spec.TotalCores(), spec.TotalGPUs(), spec.TotalMemGB()
	clu := p.Cluster()

	// Ledger bounds and double-placement are checked on every transition,
	// while the pass is mid-flight — not only at quiescence.
	setups := make(map[string]int)
	terminals := make(map[string]int)
	var setupOrder []uint64
	tm.OnState(func(task *Task, s TaskState) {
		if clu.FreeCores() < 0 || clu.FreeCores() > totalCores ||
			clu.FreeGPUs() < 0 || clu.FreeGPUs() > totalGPUs ||
			clu.FreeMemGB() < 0 || clu.FreeMemGB() > totalMem {
			t.Fatalf("ledger out of bounds at %v: %d cores, %d GPUs, %d GB free",
				engine.Now(), clu.FreeCores(), clu.FreeGPUs(), clu.FreeMemGB())
		}
		switch {
		case s == StateExecSetup:
			setups[task.ID]++
			setupOrder = append(setupOrder, task.UID)
		case s.Final():
			terminals[task.ID]++
		}
	})

	// A random workload: mostly feasible shapes, some impossible ones
	// (fail fast), submitted both up front and mid-campaign.
	nTasks := 25 + rng.Intn(40)
	var tasks []*Task
	submit := func() {
		cores := rng.Intn(spec.CoresPerNode + 1)
		gpus := 0
		if spec.GPUsPerNode > 0 && rng.Intn(3) == 0 {
			gpus = 1 + rng.Intn(spec.GPUsPerNode)
		}
		if cores == 0 && gpus == 0 {
			cores = 1
		}
		mem := rng.Intn(spec.MemGBPerNode)
		if rng.Intn(12) == 0 {
			cores = spec.CoresPerNode + 1 + rng.Intn(8) // impossible: fails fast
		}
		dur := time.Duration(1+rng.Intn(90)) * time.Minute
		busyC, busyG := rng.Intn(cores+1), 0
		if gpus > 0 {
			busyG = rng.Intn(gpus + 1)
		}
		tasks = append(tasks, tm.MustSubmit(TaskDescription{
			Name: "rand", Cores: cores, GPUs: gpus, MemGB: mem,
			Work: WorkFunc(func(*ExecContext) (Result, error) {
				return Result{Phases: []Phase{{Name: "p", Duration: dur, BusyCores: busyC, BusyGPUs: busyG}}}, nil
			}),
		}))
	}
	upfront := 1 + rng.Intn(nTasks)
	for i := 0; i < upfront; i++ {
		submit()
	}
	for i := upfront; i < nTasks; i++ {
		engine.After(time.Duration(rng.Intn(600))*time.Minute, submit)
	}

	// Random cancellations, queued and running alike.
	cancels := rng.Intn(nTasks / 3)
	for i := 0; i < cancels; i++ {
		at := time.Duration(rng.Intn(600)) * time.Minute
		engine.After(at, func() {
			if len(tasks) == 0 {
				return
			}
			tm.Cancel(tasks[rng.Intn(len(tasks))])
		})
	}

	engine.Run()

	// No task lost: every submission reached exactly one terminal state.
	if len(tasks) != nTasks {
		t.Fatalf("submitted %d tasks, expected %d", len(tasks), nTasks)
	}
	for _, task := range tasks {
		if !task.State().Final() {
			t.Fatalf("task %s stuck in %v", task.ID, task.State())
		}
		if n := terminals[task.ID]; n != 1 {
			t.Fatalf("task %s reached %d terminal states", task.ID, n)
		}
		if n := setups[task.ID]; n > 1 {
			t.Fatalf("task %s placed %d times", task.ID, n)
		}
		if task.State() == StateDone && setups[task.ID] != 1 {
			t.Fatalf("task %s done without a placement", task.ID)
		}
	}

	// Cancellation and completion unwound every delta exactly: the
	// ledger is full again and the busy series has returned to zero.
	if clu.FreeCores() != totalCores || clu.FreeGPUs() != totalGPUs || clu.FreeMemGB() != totalMem {
		t.Fatalf("ledger leaked: %d/%d cores, %d/%d GPUs, %d/%d GB free",
			clu.FreeCores(), totalCores, clu.FreeGPUs(), totalGPUs, clu.FreeMemGB(), totalMem)
	}
	end := engine.Now().Add(time.Minute)
	if trace.Sample(rec.CPUSeries(), end) != 0 || trace.Sample(rec.GPUSeries(), end) != 0 {
		t.Fatal("busy counters not unwound to zero")
	}

	// Strict FIFO never starves the queue head: placements happen in
	// submission (UID) order.
	if polName == "fifo" {
		for i := 1; i < len(setupOrder); i++ {
			if setupOrder[i] < setupOrder[i-1] {
				t.Fatalf("fifo placed out of submission order: %v", setupOrder)
			}
		}
	}
}

// TestUnknownPolicyRejected closes the configuration loop: a bad policy
// name fails at pilot submission, not mid-campaign.
func TestUnknownPolicyRejected(t *testing.T) {
	engine := simclock.New()
	pm := NewPilotManager(engine, nil)
	pd := defaultPD()
	pd.Policy = "round-robin"
	if _, err := pm.Submit(pd); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

// TestFaultInvariants extends the invariant suite to fault injection:
// every recovery policy is driven over random workloads with injected
// task faults, node crashes/repairs, and fault-model walltimes, and the
// properties the fault subsystem must never break are asserted:
//
//   - the capacity ledger never goes negative and never exceeds the
//     machine, across node crashes and repairs,
//   - every failed attempt is either terminally FAILED or resubmitted
//     exactly once (attempt chains are gapless and duplicate-free),
//   - a crashed node hosts no tasks during its repair window: nothing is
//     placed on a down node, and crash-kills happen only on down nodes.
func TestFaultInvariants(t *testing.T) {
	const trials = 5
	for _, recName := range fault.Names() {
		for trial := 0; trial < trials; trial++ {
			t.Run(fmt.Sprintf("%s/trial%d", recName, trial), func(t *testing.T) {
				runFaultInvariantTrial(t, recName, int64(trial))
			})
		}
	}
}

func runFaultInvariantTrial(t *testing.T, recName string, trial int64) {
	rng := rand.New(rand.NewSource(trial*900001 + int64(len(recName))*104729))

	spec := cluster.Spec{
		Name:         "rand",
		Nodes:        1 + rng.Intn(3),
		CoresPerNode: 4 + rng.Intn(28),
		GPUsPerNode:  rng.Intn(5),
		MemGBPerNode: 16 + rng.Intn(112),
	}
	fs := fault.Spec{TaskFailProb: 0.1 + 0.3*rng.Float64()}
	if rng.Intn(2) == 0 {
		fs.NodeMTBF = time.Duration(2+rng.Intn(6)) * time.Hour
		fs.NodeRepair = time.Duration(10+rng.Intn(40)) * time.Minute
	}
	if rng.Intn(4) == 0 {
		fs.Walltime = time.Duration(6+rng.Intn(20)) * time.Hour
	}
	pd := PilotDescription{
		Machine:  spec,
		Cost:     testCost(),
		Policy:   [2]string{"backfill", "fifo"}[rng.Intn(2)],
		Fault:    fs,
		Recovery: recName,
		Seed:     uint64(trial*13 + 1),
	}
	pd.Cost.JitterFrac = 0.2

	engine := simclock.New()
	rec := trace.NewRecorder(spec.TotalCores(), spec.TotalGPUs(), 0)
	pm := NewPilotManager(engine, rec)
	p, err := pm.Submit(pd)
	if err != nil {
		t.Fatal(err)
	}
	tm := NewTaskManager(engine, p)

	totalCores, totalGPUs, totalMem := spec.TotalCores(), spec.TotalGPUs(), spec.TotalMemGB()
	clu := p.Cluster()

	// All attempts ever seen: by task ID, and chained by origin in
	// submission order.
	seen := make(map[string]*Task)
	chains := make(map[string][]*Task)
	tm.OnState(func(task *Task, s TaskState) {
		if clu.FreeCores() < 0 || clu.FreeCores() > totalCores ||
			clu.FreeGPUs() < 0 || clu.FreeGPUs() > totalGPUs ||
			clu.FreeMemGB() < 0 || clu.FreeMemGB() > totalMem {
			t.Fatalf("ledger out of bounds at %v: %d cores, %d GPUs, %d GB free",
				engine.Now(), clu.FreeCores(), clu.FreeGPUs(), clu.FreeMemGB())
		}
		switch {
		case s == StateSubmitted:
			if _, dup := seen[task.ID]; dup {
				t.Fatalf("task %s submitted twice", task.ID)
			}
			seen[task.ID] = task
			chains[task.Origin] = append(chains[task.Origin], task)
		case s == StateExecSetup:
			if clu.NodeIsDown(task.Node()) {
				t.Fatalf("task %s placed on down node %d during its repair window", task.ID, task.Node())
			}
		case s == StateFailed:
			if task.FaultKind == fault.KindNodeCrash && !clu.NodeIsDown(task.Node()) {
				t.Fatalf("task %s crash-killed on live node %d", task.ID, task.Node())
			}
		}
	})

	nTasks := 25 + rng.Intn(30)
	submit := func() {
		cores := rng.Intn(spec.CoresPerNode + 1)
		gpus := 0
		if spec.GPUsPerNode > 0 && rng.Intn(3) == 0 {
			gpus = 1 + rng.Intn(spec.GPUsPerNode)
		}
		if cores == 0 && gpus == 0 {
			cores = 1
		}
		dur := time.Duration(1+rng.Intn(120)) * time.Minute
		busyC := rng.Intn(cores + 1)
		busyG := 0
		if gpus > 0 {
			busyG = rng.Intn(gpus + 1)
		}
		tm.MustSubmit(TaskDescription{
			Name: "rand", Cores: cores, GPUs: gpus, MemGB: rng.Intn(spec.MemGBPerNode),
			Work: WorkFunc(func(*ExecContext) (Result, error) {
				return Result{Phases: []Phase{{Name: "p", Duration: dur, BusyCores: busyC, BusyGPUs: busyG}}}, nil
			}),
		})
	}
	upfront := 1 + rng.Intn(nTasks)
	for i := 0; i < upfront; i++ {
		submit()
	}
	for i := upfront; i < nTasks; i++ {
		engine.After(time.Duration(rng.Intn(600))*time.Minute, submit)
	}

	engine.RunUntil(simclock.FromHours(24 * 60))
	p.StopFaultInjection()
	engine.Run()

	// Every attempt reached a terminal state, and attempt chains are
	// gapless: attempt k+1 exists iff attempt k failed with a retry
	// planned, and exists exactly once.
	for origin, chain := range chains {
		for i, task := range chain {
			if !task.State().Final() {
				t.Fatalf("attempt %s of %s stuck in %v", task.ID, origin, task.State())
			}
			if task.Attempt != i+1 {
				t.Fatalf("chain %s attempt numbers broken: %d at position %d", origin, task.Attempt, i)
			}
			last := i == len(chain)-1
			if task.WillRetry() == last {
				t.Fatalf("chain %s attempt %d: willRetry=%v but last=%v",
					origin, task.Attempt, task.WillRetry(), last)
			}
		}
	}

	// Tally balance: every fault-killed attempt either resubmitted or
	// ended its chain.
	tl := tm.FaultTallies()
	faults := 0
	for k := fault.Kind(1); k < fault.KindCount; k++ {
		faults += tl.ByKind[k]
	}
	if got := tl.Resubmitted + tl.Terminal; faults != got {
		// Terminal also counts fail-fast deaths of resubmitted attempts
		// (attempt > 1), which are not fault-killed; allow for them.
		extra := 0
		for _, task := range seen {
			if task.Attempt > 1 && task.State() == StateFailed && task.FaultKind == fault.KindNone {
				extra++
			}
		}
		if faults != got-extra {
			t.Fatalf("tally imbalance: %d faults vs %d resubmitted + %d terminal (%d fail-fast)",
				faults, tl.Resubmitted, tl.Terminal, extra)
		}
	}

	// The ledger unwound exactly and no node is still down.
	if clu.FreeCores() != totalCores || clu.FreeGPUs() != totalGPUs || clu.FreeMemGB() != totalMem {
		t.Fatalf("ledger leaked: %d/%d cores, %d/%d GPUs, %d/%d GB free",
			clu.FreeCores(), totalCores, clu.FreeGPUs(), totalGPUs, clu.FreeMemGB(), totalMem)
	}
	if len(clu.DownNodes()) != 0 {
		t.Fatalf("nodes still down after stop: %v", clu.DownNodes())
	}
	end := engine.Now().Add(time.Minute)
	if trace.Sample(rec.CPUSeries(), end) != 0 || trace.Sample(rec.GPUSeries(), end) != 0 {
		t.Fatal("busy counters not unwound to zero")
	}
}
