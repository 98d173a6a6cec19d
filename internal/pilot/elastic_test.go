package pilot

// Elastic capacity tests: the pilot's grow/shrink mechanism must feed
// blocked queues, refuse shrinking capacity that is busy, and keep every
// scheduler and fault invariant intact while nodes migrate between
// pilots mid-campaign.

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"impress/internal/cluster"
	"impress/internal/fault"
	"impress/internal/simclock"
	"impress/internal/trace"
)

// TestGrowNodeFeedsBlockedQueue proves grow has the same wake-up
// discipline as a release or repair: a task blocked on an exhausted
// ledger starts as soon as a node is transferred in.
func TestGrowNodeFeedsBlockedQueue(t *testing.T) {
	pd := defaultPD()
	// The recorder spans the grown capacity: in a campaign the total is
	// conserved across pilots, but this test grows a node from nowhere.
	engine := simclock.New()
	rec := trace.NewRecorder(2*pd.Machine.TotalCores(), 2*pd.Machine.TotalGPUs(), 0)
	pm := NewPilotManager(engine, rec)
	p, err := pm.Submit(pd)
	if err != nil {
		t.Fatal(err)
	}
	h := &harness{engine: engine, rec: rec, pilot: p, tm: NewTaskManager(engine, p)}
	wide := h.tm.MustSubmit(TaskDescription{
		Name: "wide", Cores: 28, Work: sleepWork("w", 2*time.Hour, 28, 0),
	})
	blocked := h.tm.MustSubmit(TaskDescription{
		Name: "blocked", Cores: 28, Work: sleepWork("b", time.Hour, 28, 0),
	})
	growAt := 30 * time.Minute
	h.engine.After(growAt, func() {
		h.pilot.GrowNode(cluster.NodeCapacity{Cores: 28, GPUs: 4, MemGB: 128}, nil)
	})
	h.engine.Run()
	if wide.State() != StateDone || blocked.State() != StateDone {
		t.Fatalf("states: wide=%v blocked=%v", wide.State(), blocked.State())
	}
	// The blocked task must have been placed at the grow instant, not
	// after the wide task's two hours.
	if blocked.SetupAt != simclock.Time(0).Add(growAt) {
		t.Fatalf("blocked task placed at %v, want %v (the transfer-in)", blocked.SetupAt, growAt)
	}
}

// TestShrinkNodeRefusesBusyCapacity pins the no-unwind discipline: a
// node with in-flight allocations never shrinks; an idle one does, and
// its capacity leaves the ledger immediately.
func TestShrinkNodeRefusesBusyCapacity(t *testing.T) {
	pd := defaultPD()
	pd.Machine = cluster.AmarelCluster(2)
	h := newHarness(t, pd)
	task := h.tm.MustSubmit(TaskDescription{
		Name: "t", Cores: 4, Work: sleepWork("t", time.Hour, 4, 0),
	})
	h.engine.RunUntil(simclock.Time(30 * time.Minute))
	if task.State() != StateRunning {
		t.Fatalf("task state %v", task.State())
	}
	busy := task.Node()
	if _, _, err := h.pilot.ShrinkNode(busy); err == nil {
		t.Fatal("shrank a node with a running task")
	}
	idle := 1 - busy
	nc, _, err := h.pilot.ShrinkNode(idle)
	if err != nil {
		t.Fatal(err)
	}
	if nc != (cluster.NodeCapacity{Cores: 28, GPUs: 4, MemGB: 128}) {
		t.Fatalf("shrunk capacity %+v", nc)
	}
	clu := h.pilot.Cluster()
	if n := activeNodes(clu); n != 1 || clu.CapCores() != 28 {
		t.Fatalf("ledger after shrink: %d nodes, %d cores", n, clu.CapCores())
	}
	h.engine.Run()
	if task.State() != StateDone {
		t.Fatalf("task state %v after shrink of the other node", task.State())
	}
	if clu.FreeCores() != clu.CapCores() {
		t.Fatal("ledger did not unwind exactly after shrink")
	}
}

// TestElasticInvariants drives two pilots under every scheduling policy
// with random workloads, random node transfers between them, and fault
// injection on top, then asserts the invariants the elastic layer must
// never break:
//
//   - each pilot's ledger stays within its *current* capacity at every
//     transition, and unwinds exactly at quiescence,
//   - transfers conserve total capacity across the pilot pair,
//   - no task is lost and nothing lands on a down or removed node,
//   - busy-resource series return to zero.
func TestElasticInvariants(t *testing.T) {
	const trials = 4
	for _, pol := range []string{"fifo", "backfill", "bestfit", "worstfit", "largest"} {
		for trial := 0; trial < trials; trial++ {
			t.Run(fmt.Sprintf("%s/trial%d", pol, trial), func(t *testing.T) {
				runElasticInvariantTrial(t, pol, int64(trial))
			})
		}
	}
}

func runElasticInvariantTrial(t *testing.T, polName string, trial int64) {
	rng := rand.New(rand.NewSource(trial*777001 + int64(len(polName))*31337))

	mkSpec := func(name string, gpus int) cluster.Spec {
		return cluster.Spec{
			Name:         name,
			Nodes:        2 + rng.Intn(3),
			CoresPerNode: 4 + rng.Intn(24),
			GPUsPerNode:  gpus,
			MemGBPerNode: 16 + rng.Intn(112),
		}
	}
	specA := mkSpec("elastic-a", 0)
	specB := mkSpec("elastic-b", 1+rng.Intn(4))

	var fs fault.Spec
	if rng.Intn(2) == 0 {
		fs.TaskFailProb = 0.2 * rng.Float64()
	}
	if rng.Intn(2) == 0 {
		fs.NodeMTBF = time.Duration(3+rng.Intn(8)) * time.Hour
		fs.NodeRepair = time.Duration(10+rng.Intn(40)) * time.Minute
	}

	engine := simclock.New()
	rec := trace.NewRecorder(specA.TotalCores()+specB.TotalCores(), specA.TotalGPUs()+specB.TotalGPUs(), 0)
	pm := NewPilotManager(engine, rec)
	newPilot := func(spec cluster.Spec, seed uint64) *Pilot {
		p, err := pm.Submit(PilotDescription{
			Machine:  spec,
			Cost:     testCost(),
			Policy:   polName,
			Fault:    fs,
			Recovery: "retry",
			Seed:     seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	pa := newPilot(specA, uint64(trial*7+1))
	pb := newPilot(specB, uint64(trial*7+2))
	tm := NewTaskManager(engine, pa, pb)

	totCores := specA.TotalCores() + specB.TotalCores()
	totGPUs := specA.TotalGPUs() + specB.TotalGPUs()
	totMem := specA.Nodes*specA.MemGBPerNode + specB.Nodes*specB.MemGBPerNode
	pilots := []*Pilot{pa, pb}

	var tasks []*Task
	tm.OnState(func(task *Task, s TaskState) {
		capC, capG, capM := 0, 0, 0
		for _, p := range pilots {
			clu := p.Cluster()
			freeMem, capMem := memGB(clu)
			if clu.FreeCores() < 0 || clu.FreeCores() > clu.CapCores() ||
				clu.FreeGPUs() < 0 || clu.FreeGPUs() > clu.CapGPUs() ||
				freeMem < 0 || freeMem > capMem {
				t.Fatalf("ledger out of bounds at %v on %s: %d/%d cores, %d/%d GPUs",
					engine.Now(), p.ID, clu.FreeCores(), clu.CapCores(), clu.FreeGPUs(), clu.CapGPUs())
			}
			capC += clu.CapCores()
			capG += clu.CapGPUs()
			capM += capMem
		}
		if capC != totCores || capG != totGPUs || capM != totMem {
			t.Fatalf("transfers leaked capacity at %v: %d/%d cores, %d/%d GPUs, %d/%d GB",
				engine.Now(), capC, totCores, capG, totGPUs, capM, totMem)
		}
		if s == StateExecSetup {
			clu := task.pilot.Cluster()
			if clu.NodeIsDown(task.Node()) || clu.NodeIsRemoved(task.Node()) {
				t.Fatalf("task %s placed on unavailable node %d", task.ID, task.Node())
			}
		}
	})

	// Random workload across both pilots (untargeted: the task manager
	// routes by shape).
	nTasks := 30 + rng.Intn(30)
	submit := func() {
		spec := specA
		if rng.Intn(2) == 0 {
			spec = specB
		}
		cores := 1 + rng.Intn(spec.CoresPerNode)
		gpus := 0
		if spec.GPUsPerNode > 0 && rng.Intn(2) == 0 {
			gpus = 1 + rng.Intn(spec.GPUsPerNode)
		}
		dur := time.Duration(1+rng.Intn(120)) * time.Minute
		busyC, busyG := rng.Intn(cores+1), 0
		if gpus > 0 {
			busyG = rng.Intn(gpus + 1)
		}
		tasks = append(tasks, tm.MustSubmit(TaskDescription{
			Name: "rand", Cores: cores, GPUs: gpus, MemGB: rng.Intn(spec.MemGBPerNode),
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

	// Random node transfers both ways, applied whenever a donor has an
	// idle node to spare — the raw mechanism the steering controller
	// drives, here exercised without its usefulness filter.
	for i := 0; i < 25; i++ {
		at := time.Duration(rng.Intn(900)) * time.Minute
		dir := rng.Intn(2)
		engine.After(at, func() {
			from, to := pilots[dir], pilots[1-dir]
			if !from.Active() || !to.Active() {
				return
			}
			clu := from.Cluster()
			ids := clu.TransferableNodes()
			if len(ids) == 0 || activeNodes(clu) <= 1 {
				return
			}
			nc, ch, err := from.ShrinkNode(ids[rng.Intn(len(ids))])
			if err != nil {
				t.Fatalf("shrink of transferable node failed: %v", err)
			}
			to.GrowNode(nc, ch)
		})
	}

	engine.RunUntil(simclock.Time(24 * 30 * time.Hour))
	pa.StopFaultInjection()
	pb.StopFaultInjection()
	engine.Run()

	for _, task := range tasks {
		if !task.State().Final() {
			t.Fatalf("task %s stuck in %v", task.ID, task.State())
		}
	}
	freeC, freeG, freeM, capC, capG, capM := 0, 0, 0, 0, 0, 0
	for _, p := range pilots {
		clu := p.Cluster()
		freeMem, capMem := memGB(clu)
		freeC += clu.FreeCores()
		freeG += clu.FreeGPUs()
		freeM += freeMem
		capC += clu.CapCores()
		capG += clu.CapGPUs()
		capM += capMem
	}
	if capC != totCores || capG != totGPUs || capM != totMem {
		t.Fatalf("capacity leaked: %d/%d cores, %d/%d GPUs, %d/%d GB", capC, totCores, capG, totGPUs, capM, totMem)
	}
	if freeC != capC || freeG != capG || freeM != capM {
		t.Fatalf("ledger leaked: %d/%d cores, %d/%d GPUs, %d/%d GB free", freeC, capC, freeG, capG, freeM, capM)
	}
	end := engine.Now().Add(time.Minute)
	if trace.Sample(rec.CPUSeries(), end) != 0 || trace.Sample(rec.GPUSeries(), end) != 0 {
		t.Fatal("busy counters not unwound to zero")
	}
}
