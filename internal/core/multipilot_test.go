package core

import (
	"sort"
	"testing"

	"impress/internal/cluster"
	"impress/internal/pipeline"
)

// splitConfig converts a campaign config to the ParaFold-style CPU/GPU
// pilot pair over the same machine.
func splitConfig(t *testing.T, cfg Config) Config {
	t.Helper()
	pilots, err := SplitPilots(cfg.Machine)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Pilots = pilots
	return cfg
}

// scientificKey sorts trajectories into a placement-invariant order.
func sortedTrajectories(res *Result) []pipeline.Trajectory {
	trs := append([]pipeline.Trajectory(nil), res.Trajectories...)
	sort.Slice(trs, func(i, j int) bool {
		if trs[i].PipelineID != trs[j].PipelineID {
			return trs[i].PipelineID < trs[j].PipelineID
		}
		return trs[i].Cycle < trs[j].Cycle
	})
	return trs
}

func assertSameScience(t *testing.T, single, split *Result) {
	t.Helper()
	if split.FailedTasks != 0 {
		t.Fatalf("split campaign had %d failed tasks", split.FailedTasks)
	}
	a, b := sortedTrajectories(single), sortedTrajectories(split)
	if len(a) != len(b) {
		t.Fatalf("trajectory counts diverged: single %d split %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Metrics != b[i].Metrics || a[i].Accepted != b[i].Accepted ||
			a[i].CandidateRank != b[i].CandidateRank || a[i].Evaluations != b[i].Evaluations {
			t.Fatalf("trajectory %s/c%d diverged: single %+v split %+v",
				a[i].PipelineID, a[i].Cycle, a[i], b[i])
		}
	}
	for name, m := range single.FinalBest {
		if split.FinalBest[name] != m {
			t.Fatalf("final best for %s diverged: %v vs %v", name, m, split.FinalBest[name])
		}
	}
	if single.NetDelta(PLDDTOf) != split.NetDelta(PLDDTOf) {
		t.Fatalf("net pLDDT diverged: %v vs %v", single.NetDelta(PLDDTOf), split.NetDelta(PLDDTOf))
	}
}

// TestSplitPilotsControlIdentical: CONT-V runs one task at a time, so the
// heterogeneous placement must reproduce the single-pilot science exactly
// — same trajectories in the same order.
func TestSplitPilotsControlIdentical(t *testing.T) {
	targets := smallTargets(t, 3, 21)
	single, err := RunControl(smallTargets(t, 3, 21), fastControl(21))
	if err != nil {
		t.Fatal(err)
	}
	split, err := RunControl(targets, splitConfig(t, fastControl(21)))
	if err != nil {
		t.Fatal(err)
	}
	for i := range single.Trajectories {
		if single.Trajectories[i].PipelineID != split.Trajectories[i].PipelineID {
			t.Fatal("control trajectory order diverged under split pilots")
		}
	}
	assertSameScience(t, single, split)
	if len(split.Pilots) != 2 || split.Pilots[0] != "pilot-cpu" || split.Pilots[1] != "pilot-gpu" {
		t.Fatalf("pilot names = %v", split.Pilots)
	}
	if split.TotalCores != single.TotalCores || split.TotalGPUs != single.TotalGPUs {
		t.Fatalf("split capacity %d/%d != single %d/%d",
			split.TotalCores, split.TotalGPUs, single.TotalCores, single.TotalGPUs)
	}
}

// TestSplitPilotsAdaptiveScienceInvariant: with sub-pipeline generation
// off, every pipeline's design chain depends only on its own seed
// streams, so the heterogeneous placement changes the timeline but not
// one bit of the science.
func TestSplitPilotsAdaptiveScienceInvariant(t *testing.T) {
	cfg := fastAdaptive(22)
	cfg.Sub.Enabled = false
	single, err := RunAdaptive(smallTargets(t, 4, 22), cfg)
	if err != nil {
		t.Fatal(err)
	}
	split, err := RunAdaptive(smallTargets(t, 4, 22), splitConfig(t, cfg))
	if err != nil {
		t.Fatal(err)
	}
	assertSameScience(t, single, split)
}

// TestSplitPilotsFullAdaptiveDeterminism: the full IM-RP protocol with
// dynamic sub-pipelines must stay reproducible and healthy under
// heterogeneous placement.
func TestSplitPilotsFullAdaptiveDeterminism(t *testing.T) {
	run := func() *Result {
		res, err := RunAdaptive(smallTargets(t, 4, 23), splitConfig(t, fastAdaptive(23)))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.TrajectoryCount() != b.TrajectoryCount() || a.SubPipelines != b.SubPipelines ||
		a.Makespan != b.Makespan || a.CPUUtilization != b.CPUUtilization {
		t.Fatal("split-pilot campaign not deterministic")
	}
	if a.FailedTasks != 0 {
		t.Fatalf("split-pilot campaign had %d failed tasks", a.FailedTasks)
	}
	// Every GPU-class task must have landed on the GPU pilot and vice
	// versa: no task record may show a GPU task wider than the GPU
	// partition or a CPU task on it.
	for _, tr := range a.TaskRecords {
		if tr.GPUs > 0 && tr.Cores > 8 {
			t.Fatalf("GPU-class task %s (%d cores) exceeds GPU partition", tr.Name, tr.Cores)
		}
	}
}

// TestSplitPilotsRouting checks task placement lands on the class-matched
// pilot partition.
func TestSplitPilotsRouting(t *testing.T) {
	cfg := splitConfig(t, fastControl(24))
	coord, err := NewCoordinator(smallTargets(t, 1, 24), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := coord.Run(); err != nil {
		t.Fatal(err)
	}
	gpuID := coord.pilots[1].ID
	cpuID := coord.pilots[0].ID
	seen := map[string]int{}
	for i := uint64(1); ; i++ {
		tsk, ok := coord.tm.Get(i)
		if !ok {
			break
		}
		want := cpuID
		if tsk.Description.GPUs > 0 {
			want = gpuID
		}
		if tsk.PilotID != want {
			t.Fatalf("task %s (gpus=%d) placed on %s, want %s", tsk.ID, tsk.Description.GPUs, tsk.PilotID, want)
		}
		seen[tsk.PilotID]++
	}
	if seen[cpuID] == 0 || seen[gpuID] == 0 {
		t.Fatalf("placement skew: %v", seen)
	}
}

// TestPilotValidation exercises the multi-pilot config checks.
func TestPilotValidation(t *testing.T) {
	targets := smallTargets(t, 1, 25)
	base := fastControl(25)

	bad := base
	bad.Pilots = []PilotSpec{{Name: "", Machine: cluster.AmarelNode()}}
	if _, err := NewCoordinator(targets, bad); err == nil {
		t.Error("unnamed pilot accepted")
	}

	bad = base
	bad.Pilots = []PilotSpec{
		{Name: "a", Machine: cluster.AmarelNode()},
		{Name: "a", Machine: cluster.AmarelNode()},
	}
	if _, err := NewCoordinator(targets, bad); err == nil {
		t.Error("duplicate pilot names accepted")
	}

	bad = base
	cpu, _, err := cluster.SplitCPUGPU(cluster.AmarelNode(), 8, 32)
	if err != nil {
		t.Fatal(err)
	}
	bad.Pilots = []PilotSpec{{Name: "cpu-only", Machine: cpu, Serves: []ResourceClass{ClassCPU}}}
	if _, err := NewCoordinator(targets, bad); err == nil {
		t.Error("pilot set with no GPU service accepted")
	}

	bad = base
	bad.Pilots = []PilotSpec{{Name: "fake-gpu", Machine: cpu, Serves: []ResourceClass{ClassCPU, ClassGPU}}}
	if _, err := NewCoordinator(targets, bad); err == nil {
		t.Error("GPU-serving pilot without GPUs accepted")
	}
}

// TestUnknownSteerRejected closes the configuration loop: a bad steering
// name fails when the campaign is built, not mid-campaign.
func TestUnknownSteerRejected(t *testing.T) {
	cfg := splitConfig(t, fastAdaptive(25))
	cfg.Steer = "round-robin"
	if _, err := NewCoordinator(smallTargets(t, 1, 25), cfg); err == nil {
		t.Fatal("unknown steering policy accepted")
	}
}
