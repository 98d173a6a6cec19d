package pilot

import (
	"strings"
	"testing"
	"time"

	"impress/internal/cluster"
	"impress/internal/fault"
	"impress/internal/simclock"
)

// TestPlacementByClassAndShape drives the task manager's one placement
// rule over a GPU pilot and two CPU pilots of different node shapes, in
// launch order:
//
//	gpu    serves GPU, one 8-core 2-GPU node
//	narrow serves CPU, one 4-core node
//	wide   serves CPU, one 16-core 2-GPU node, 2 h walltime
//
// A fresh task skips a serving pilot its request cannot fit and a
// fitting pilot that does not serve its class; a GPU task never lands on
// wide although wide's node could host it; wide's walltime expiry moves
// its victim to the live CPU pilot, not to the gpu pilot listed before
// it; and an eviction hint still ignores class.
func TestPlacementByClassAndShape(t *testing.T) {
	engine := simclock.New()
	pm := NewPilotManager(engine, nil)
	mk := func(cores, gpus int, serves ResourceClass, wall time.Duration) *Pilot {
		p, err := pm.Submit(PilotDescription{
			Machine:  cluster.Spec{Name: "m", Nodes: 1, CoresPerNode: cores, GPUsPerNode: gpus, MemGBPerNode: 64},
			Serves:   []ResourceClass{serves},
			Cost:     testCost(),
			Fault:    fault.Spec{Walltime: wall},
			Recovery: "retry",
			Seed:     uint64(cores + gpus),
		})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	gpu := mk(8, 2, ClassGPU, 0)
	narrow := mk(4, 0, ClassCPU, 0)
	wide := mk(16, 2, ClassCPU, 2*time.Hour)
	tm := NewTaskManager(engine, gpu, narrow, wide)

	fresh := tm.MustSubmit(TaskDescription{Name: "fresh", Cores: 8, Work: sleepWork("x", time.Hour, 8, 0)})
	if fresh.PilotID != wide.ID {
		t.Errorf("8-core CPU task placed on %s, want %s (the first serving pilot whose node fits)", fresh.PilotID, wide.ID)
	}
	small := tm.MustSubmit(TaskDescription{Name: "small", Cores: 2, GPUs: 1, Work: sleepWork("x", time.Hour, 2, 1)})
	if small.PilotID != gpu.ID {
		t.Errorf("GPU task placed on %s, want %s", small.PilotID, gpu.ID)
	}
	// No GPU-serving node fits 12 cores: the task fails fast on the
	// first GPU-serving pilot instead of running on wide.
	big := tm.MustSubmit(TaskDescription{Name: "big", Cores: 12, GPUs: 1, Work: sleepWork("x", time.Hour, 12, 1)})
	if big.PilotID != gpu.ID || big.State() != StateFailed || big.Err == nil || !strings.Contains(big.Err.Error(), "exceeds") {
		t.Errorf("oversized GPU task on %s ended %v (%v), want a capacity failure on %s", big.PilotID, big.State(), big.Err, gpu.ID)
	}
	victim := tm.MustSubmit(TaskDescription{Name: "victim", Cores: 4, Pilot: wide.ID, Work: sleepWork("x", 5*time.Hour, 4, 0)})
	// Evicting the GPU task with wide as the hint resumes it on wide,
	// which does not serve GPU tasks but whose node fits.
	engine.At(simclock.Time(30*time.Minute), func() {
		if _, _, err := gpu.EvictNode(0, wide.ID); err != nil {
			t.Error(err)
		}
	})
	engine.Run()

	if wide.state != PilotDone {
		t.Fatal("wide pilot did not expire")
	}
	for _, c := range []struct {
		task     *Task
		attempts int
		want     *Pilot
	}{{fresh, 1, wide}, {victim, 2, narrow}, {small, 2, wide}} {
		last := tm.tasks.at(c.task.chain).live
		if last.State() != StateDone || last.Attempt != c.attempts || last.PilotID != c.want.ID {
			t.Errorf("%s: attempt %d ended %v on %s, want attempt %d DONE on %s",
				c.task.Description.Name, last.Attempt, last.State(), last.PilotID, c.attempts, c.want.ID)
		}
	}
}
