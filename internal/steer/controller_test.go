package steer_test

// Controller tests drive the steering mechanism over real pilots: the
// external test package breaks the steer ← pilot dependency order that
// the production code keeps.

import (
	"testing"
	"time"

	"impress/internal/cluster"
	"impress/internal/costmodel"
	"impress/internal/pilot"
	"impress/internal/simclock"
	"impress/internal/steer"
	"impress/internal/telemetry"
	"impress/internal/trace"
)

func testCost() costmodel.Params {
	p := costmodel.Default()
	p.JitterFrac = 0
	p.BootstrapTime = time.Minute
	p.SetupBase = 10 * time.Second
	p.SetupPerConcur = 0
	p.SetupMax = time.Minute
	return p
}

type rig struct {
	engine *simclock.Engine
	rec    *trace.Recorder
	pilots []*pilot.Pilot
	tm     *pilot.TaskManager
}

// newRig builds a CPU pilot and a GPU pilot over n-node split partitions.
func newRig(t *testing.T, nodes int) *rig {
	t.Helper()
	cpu, gpu, err := cluster.SplitCPUGPU(cluster.AmarelNode(), 8, 32)
	if err != nil {
		t.Fatal(err)
	}
	cpu.Nodes, gpu.Nodes = nodes, nodes
	engine := simclock.New()
	rec := trace.NewRecorder(cpu.TotalCores()+gpu.TotalCores(), cpu.TotalGPUs()+gpu.TotalGPUs(), 0)
	pm := pilot.NewPilotManager(engine, rec)
	var pilots []*pilot.Pilot
	for i, spec := range []cluster.Spec{cpu, gpu} {
		p, err := pm.Submit(pilot.PilotDescription{
			Machine: spec, Cost: testCost(), Policy: "backfill", Seed: uint64(i + 1),
		})
		if err != nil {
			t.Fatal(err)
		}
		pilots = append(pilots, p)
	}
	return &rig{engine: engine, rec: rec, pilots: pilots, tm: pilot.NewTaskManager(engine, pilots...)}
}

func cpuWork(d time.Duration, cores int) pilot.Work {
	return pilot.WorkFunc(func(*pilot.ExecContext) (pilot.Result, error) {
		return pilot.Result{Phases: []pilot.Phase{{Name: "c", Duration: d, BusyCores: cores}}}, nil
	})
}

// TestControllerSteersCapacityTowardPressure floods the CPU pilot while
// the GPU pilot sits idle: the greedy controller must move GPU-partition
// nodes over, the flood must finish sooner than the frozen split allows,
// and every transfer must be logged.
func TestControllerSteersCapacityTowardPressure(t *testing.T) {
	makespan := func(steered bool) (time.Duration, int) {
		r := newRig(t, 3)
		var ctl *steer.Controller
		if steered {
			pol, err := steer.New("greedy")
			if err != nil {
				t.Fatal(err)
			}
			ctl = steer.NewController(r.engine, r.pilots, pol, steer.DefaultPeriod, nil, nil)
			ctl.Start()
		}
		// 24 MSA-shaped CPU tasks (8 cores, the paper's MSA width) over 3
		// CPU nodes: a long queue the GPU pilot's idle 8-core nodes could
		// help drain (its floor keeps the last one home).
		var tasks []*pilot.Task
		for i := 0; i < 24; i++ {
			tasks = append(tasks, mustSubmit(r.tm, pilot.TaskDescription{
				Name: "cpu", Cores: 8, Pilot: r.pilots[0].ID,
				Work: cpuWork(2*time.Hour, 8),
			}))
		}
		// Drain with a bounded horizon, then stop the ticker so the
		// engine can run dry.
		r.engine.RunUntil(simclock.Time(24 * 7 * time.Hour))
		if ctl != nil {
			ctl.Stop()
		}
		r.engine.Run()
		var end simclock.Time
		for _, task := range tasks {
			if task.State() != pilot.StateDone {
				t.Fatalf("task %s ended %v", task.ID, task.State())
			}
			if task.EndedAt > end {
				end = task.EndedAt
			}
		}
		moves := 0
		if ctl != nil {
			moves = ctl.Transfers()
		}
		return end.Duration(), moves
	}

	frozen, _ := makespan(false)
	steered, moves := makespan(true)
	if moves == 0 {
		t.Fatal("controller applied no transfers under sustained pressure")
	}
	if steered >= frozen {
		t.Fatalf("steering did not help: %v steered vs %v frozen", steered, frozen)
	}
}

// TestControllerSkipsUselessDonations pins the stranding guard: a CPU
// node (0 GPUs) must never be shipped to a queue of GPU tasks it cannot
// host.
func TestControllerSkipsUselessDonations(t *testing.T) {
	r := newRig(t, 2)
	pol, _ := steer.New("greedy")
	ctl := steer.NewController(r.engine, r.pilots, pol, steer.DefaultPeriod, nil, nil)
	ctl.Start()
	// Flood the GPU pilot with GPU tasks; the CPU pilot idles. Its
	// 0-GPU nodes are useless to that queue and must stay home.
	for i := 0; i < 12; i++ {
		mustSubmit(r.tm, pilot.TaskDescription{
			Name: "gpu", Cores: 2, GPUs: 4, Pilot: r.pilots[1].ID,
			Work: pilot.WorkFunc(func(*pilot.ExecContext) (pilot.Result, error) {
				return pilot.Result{Phases: []pilot.Phase{{Name: "g", Duration: time.Hour, BusyCores: 2, BusyGPUs: 4}}}, nil
			}),
		})
	}
	r.engine.RunUntil(simclock.Time(24 * time.Hour))
	ctl.Stop()
	r.engine.Run()
	if n := ctl.Transfers(); n != 0 {
		t.Fatalf("%d useless transfers applied", n)
	}
	if got := activeNodes(r.pilots[0].Cluster()); got != 2 {
		t.Fatalf("CPU pilot lost nodes to a queue it cannot serve: %d", got)
	}
}

// TestControllerKeepsLastOperationalNode pins the down-node-aware floor:
// a donor whose other node is crashed must not ship its only live node,
// however hard the receiver starves.
func TestControllerKeepsLastOperationalNode(t *testing.T) {
	r := newRig(t, 2)
	pol, _ := steer.New("greedy")
	ctl := steer.NewController(r.engine, r.pilots, pol, steer.DefaultPeriod, nil, nil)
	ctl.Start()
	for i := 0; i < 16; i++ {
		mustSubmit(r.tm, pilot.TaskDescription{
			Name: "cpu", Cores: 8, Pilot: r.pilots[0].ID, Work: cpuWork(2*time.Hour, 8),
		})
	}
	// Crash one of the GPU pilot's two nodes right after activation: the
	// survivor is the pilot's only schedulable capacity and must stay.
	r.engine.After(2*time.Minute, func() {
		r.pilots[1].Cluster().SetNodeDown(0)
	})
	r.engine.RunUntil(simclock.Time(24 * 7 * time.Hour))
	ctl.Stop()
	r.engine.Run()
	if n := ctl.Transfers(); n != 0 {
		t.Fatalf("donor shipped its last operational node (%d transfers)", n)
	}
	if got := activeNodes(r.pilots[1].Cluster()); got != 2 {
		t.Fatalf("GPU pilot has %d nodes", got)
	}
}

// capturePolicy records every stats snapshot it is shown and proposes a
// fixed transfer list each observation.
type capturePolicy struct {
	snaps    [][]steer.Stat
	proposal []steer.Transfer
}

func (p *capturePolicy) Name() string { return "capture" }
func (p *capturePolicy) Decide(stats []steer.Stat) []steer.Transfer {
	p.snaps = append(p.snaps, append([]steer.Stat(nil), stats...))
	return p.proposal
}

// TestControllerRecordsVetoes: every rejected proposal lands in the veto
// log with the mechanism's reason, and applied-move counting stays
// separate.
func TestControllerRecordsVetoes(t *testing.T) {
	r := newRig(t, 2)
	pol := &capturePolicy{proposal: []steer.Transfer{
		{From: 5, To: 0}, // out of range
		{From: 1, To: 1}, // self-transfer
		{From: 1, To: 0}, // no queued CPU work fits nothing -> no-fitting-capacity
	}}
	ctl := steer.NewController(r.engine, r.pilots, pol, steer.DefaultPeriod, nil, nil)
	ctl.Start()
	// One short task keeps the engine alive past a few observations.
	mustSubmit(r.tm, pilot.TaskDescription{
		Name: "cpu", Cores: 2, Pilot: r.pilots[0].ID, Work: cpuWork(time.Hour, 2),
	})
	r.engine.RunUntil(simclock.Time(time.Hour))
	ctl.Stop()
	r.engine.Run()

	if ctl.Transfers() != 0 {
		t.Fatalf("%d transfers applied from invalid proposals", ctl.Transfers())
	}
	vetoes := ctl.Vetoes()
	if len(vetoes) == 0 || ctl.VetoCount() != len(vetoes) {
		t.Fatalf("veto log empty or miscounted: %d vs %d", len(vetoes), ctl.VetoCount())
	}
	reasons := make(map[string]int)
	for _, v := range vetoes {
		reasons[v.Reason]++
	}
	if reasons[steer.VetoBadProposal] == 0 {
		t.Fatalf("no bad-proposal vetoes in %v", reasons)
	}
	if reasons[steer.VetoNoCapacity] == 0 {
		t.Fatalf("no no-fitting-capacity vetoes in %v", reasons)
	}
	// The returned log is a copy.
	vetoes[0].Reason = "mutated"
	if ctl.Vetoes()[0].Reason == "mutated" {
		t.Fatal("Vetoes exposed internal slice")
	}
}

// TestControllerStatDerivatives pins the windowed telemetry signals the
// controller maintains for predictive policies: Util reflects allocated
// capacity, UtilWindow is seeded by the first sample, and QueueDelta is
// zero first and tracks queue growth afterwards.
func TestControllerStatDerivatives(t *testing.T) {
	r := newRig(t, 2)
	pol := &capturePolicy{}
	ctl := steer.NewController(r.engine, r.pilots, pol, steer.DefaultPeriod, nil, nil)
	ctl.Start()
	for i := 0; i < 16; i++ {
		mustSubmit(r.tm, pilot.TaskDescription{
			Name: "cpu", Cores: 8, Pilot: r.pilots[0].ID, Work: cpuWork(4*time.Hour, 8),
		})
	}
	r.engine.RunUntil(simclock.Time(2 * time.Hour))
	ctl.Stop()
	r.engine.Run()

	if len(pol.snaps) < 2 {
		t.Fatalf("only %d observations", len(pol.snaps))
	}
	first, second := pol.snaps[0], pol.snaps[1]
	if first[0].QueueDelta != 0 {
		t.Fatalf("first QueueDelta = %d, want 0", first[0].QueueDelta)
	}
	if first[0].UtilWindow != first[0].Util {
		t.Fatalf("first UtilWindow = %v, want seeded to Util %v", first[0].UtilWindow, first[0].Util)
	}
	if first[0].Util <= 0 || first[0].Util > 1 {
		t.Fatalf("flooded pilot Util = %v", first[0].Util)
	}
	wantWin := 0.5*first[0].UtilWindow + 0.5*second[0].Util
	if diff := second[0].UtilWindow - wantWin; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("second UtilWindow = %v, want EWMA %v", second[0].UtilWindow, wantWin)
	}
	if second[0].QueueDelta != second[0].Queue-first[0].Queue {
		t.Fatalf("QueueDelta = %d, want %d", second[0].QueueDelta, second[0].Queue-first[0].Queue)
	}
}

// TestControllerTelemetryLog: with telemetry on in the campaign's
// recorder, every tick lands in the timeline with its per-pilot samples,
// and vetoes emit instants.
func TestControllerTelemetryLog(t *testing.T) {
	r := newRig(t, 2)
	r.rec.EnableTelemetry()
	pol := &capturePolicy{proposal: []steer.Transfer{{From: 9, To: 9}}}
	ctl := steer.NewController(r.engine, r.pilots, pol, steer.DefaultPeriod, r.rec, nil)
	ctl.Start()
	mustSubmit(r.tm, pilot.TaskDescription{
		Name: "cpu", Cores: 2, Pilot: r.pilots[0].ID, Work: cpuWork(time.Hour, 2),
	})
	r.engine.RunUntil(simclock.Time(time.Hour))
	ctl.Stop()
	r.engine.Run()

	d := telemetry.Collect(r.rec, nil)
	if len(d.Ticks) != len(pol.snaps) {
		t.Fatalf("%d ticks logged for %d observations", len(d.Ticks), len(pol.snaps))
	}
	if len(d.Ticks[0].Pilots) != 2 {
		t.Fatalf("tick samples = %d pilots, want 2", len(d.Ticks[0].Pilots))
	}
	if len(d.Ticks[0].Actions) == 0 {
		t.Fatal("vetoed observation logged no actions")
	}
	if d.Counters[trace.KindSteerVeto] == 0 {
		t.Fatal("no steer-veto instants recorded")
	}
}

// mustSubmit submits a task the test describes statically valid.
// activeNodes counts the nodes still part of c: not transferred away.
func activeNodes(c *cluster.Cluster) int {
	n := 0
	for i := range c.NodeCount() {
		if !c.NodeIsRemoved(i) {
			n++
		}
	}
	return n
}

func mustSubmit(tm *pilot.TaskManager, td pilot.TaskDescription) *pilot.Task {
	task, err := tm.Submit(td)
	if err != nil {
		panic(err)
	}
	return task
}
