package core

import (
	"testing"
	"time"

	"impress/internal/pipeline"
	"impress/internal/workload"
)

// smallTargets builds a quick workload for unit tests.
func smallTargets(t *testing.T, n int, seed uint64) []*workload.Target {
	t.Helper()
	var targets []*workload.Target
	for i := 0; i < n; i++ {
		name := "T" + string(rune('A'+i))
		tg, err := workload.NewTarget(seed, name, 48+2*i, workload.AlphaSynucleinTail4, workload.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		targets = append(targets, tg)
	}
	return targets
}

// fastParams shrinks the protocol for unit-test speed.
func fastParams(p pipeline.Params) pipeline.Params {
	p.Cycles = 3
	p.MPNN.NumSequences = 6
	p.MPNN.Sweeps = 2
	return p
}

func fastControl(seed uint64) Config {
	cfg := ControlConfig(seed)
	cfg.Pipeline = fastParams(cfg.Pipeline)
	return cfg
}

func fastAdaptive(seed uint64) Config {
	cfg := AdaptiveConfig(seed)
	cfg.Pipeline = fastParams(cfg.Pipeline)
	return cfg
}

func TestControlCampaignShape(t *testing.T) {
	targets := smallTargets(t, 4, 1)
	res, err := RunControl(targets, fastControl(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Approach != "CONT-V" {
		t.Errorf("Approach = %q", res.Approach)
	}
	wantTraj := 4 * 3
	if res.TrajectoryCount() != wantTraj {
		t.Fatalf("trajectories = %d, want %d", res.TrajectoryCount(), wantTraj)
	}
	for _, tr := range res.Trajectories {
		if !tr.Accepted {
			t.Fatal("control trajectory not accepted")
		}
		if tr.Evaluations != 1 {
			t.Fatal("control trajectory used retries")
		}
		if tr.Sub {
			t.Fatal("control produced a sub-pipeline trajectory")
		}
	}
	if res.SubPipelines != 0 || res.BasePipelines != 4 {
		t.Fatalf("pipelines: base %d sub %d", res.BasePipelines, res.SubPipelines)
	}
	if res.Evaluations != wantTraj {
		t.Fatalf("evaluations = %d, want %d", res.Evaluations, wantTraj)
	}
	// 5 tasks per cycle: mpnn, rank, fasta, fold(mono), metrics.
	if res.TaskCount != wantTraj*5 {
		t.Fatalf("tasks = %d, want %d", res.TaskCount, wantTraj*5)
	}
	if res.FailedTasks != 0 {
		t.Fatalf("failed tasks: %d", res.FailedTasks)
	}
	// Sequential execution: makespan tracks aggregate task time plus
	// overheads.
	if res.Makespan < res.AggregateTaskTime {
		t.Fatalf("sequential campaign makespan %v below aggregate %v", res.Makespan, res.AggregateTaskTime)
	}
	slack := res.Makespan - res.AggregateTaskTime
	if slack > res.AggregateTaskTime/4 {
		t.Fatalf("sequential campaign has too much idle slack: %v", slack)
	}
	// Low utilization is the whole point of the baseline.
	if res.CPUUtilization > 0.40 {
		t.Fatalf("control CPU utilization %v too high", res.CPUUtilization)
	}
	if res.GPUUtilization > 0.15 {
		t.Fatalf("control GPU utilization %v too high", res.GPUUtilization)
	}
}

func TestControlNeverOverlapsTasks(t *testing.T) {
	targets := smallTargets(t, 2, 2)
	res, err := RunControl(targets, fastControl(2))
	if err != nil {
		t.Fatal(err)
	}
	// With one task at a time, busy cores never exceed the widest single
	// task (the monolithic fold's MSA phase: 8 cores).
	maxBusy := 0
	for _, p := range res.CPUSeries {
		if p.Value > maxBusy {
			maxBusy = p.Value
		}
	}
	if maxBusy > res.TotalCores/3 {
		t.Fatalf("control ran tasks concurrently: peak busy cores %d", maxBusy)
	}
}

func TestAdaptiveCampaignShape(t *testing.T) {
	targets := smallTargets(t, 4, 3)
	res, err := RunAdaptive(targets, fastAdaptive(3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Approach != "IM-RP" {
		t.Errorf("Approach = %q", res.Approach)
	}
	if res.FailedTasks != 0 {
		t.Fatalf("failed tasks: %d", res.FailedTasks)
	}
	if res.Evaluations < res.TrajectoryCount() {
		t.Fatalf("evaluations %d below trajectories %d", res.Evaluations, res.TrajectoryCount())
	}
	// Concurrency: makespan well below aggregate task time.
	if res.Makespan >= res.AggregateTaskTime {
		t.Fatalf("adaptive campaign did not overlap tasks: makespan %v aggregate %v",
			res.Makespan, res.AggregateTaskTime)
	}
	// Sub-pipeline trajectories must be flagged and counted coherently.
	subTraj := 0
	for _, tr := range res.Trajectories {
		if tr.Sub {
			subTraj++
		}
	}
	if res.SubPipelines > 0 && subTraj == 0 {
		t.Fatal("sub-pipelines spawned but produced no trajectories")
	}
	if subTraj > res.SubPipelines*1 { // sub policy runs one cycle each
		t.Fatalf("%d sub trajectories from %d sub-pipelines", subTraj, res.SubPipelines)
	}
}

func TestAdaptiveBeatsControl(t *testing.T) {
	// The paper's headline claims on the real 4-PDZ workload: better
	// quality deltas, higher utilization, more trajectories, longer
	// aggregate task time.
	targets, err := workload.NamedTargets(42, workload.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := RunControl(targets, ControlConfig(42))
	if err != nil {
		t.Fatal(err)
	}
	adpt, err := RunAdaptive(targets, AdaptiveConfig(42))
	if err != nil {
		t.Fatal(err)
	}

	if ad, cd := adpt.NetDelta(PLDDTOf), ctrl.NetDelta(PLDDTOf); ad <= cd {
		t.Errorf("pLDDT net delta: IM-RP %v <= CONT-V %v", ad, cd)
	}
	if ad, cd := adpt.NetDelta(PTMOf), ctrl.NetDelta(PTMOf); ad <= cd {
		t.Errorf("pTM net delta: IM-RP %v <= CONT-V %v", ad, cd)
	}
	if adpt.CPUUtilization <= ctrl.CPUUtilization*2 {
		t.Errorf("CPU utilization: IM-RP %v vs CONT-V %v (want > 2x)",
			adpt.CPUUtilization, ctrl.CPUUtilization)
	}
	if adpt.GPUUtilization <= ctrl.GPUUtilization*2 {
		t.Errorf("GPU utilization: IM-RP %v vs CONT-V %v (want > 2x)",
			adpt.GPUUtilization, ctrl.GPUUtilization)
	}
	if adpt.TrajectoryCount() <= ctrl.TrajectoryCount() {
		t.Errorf("trajectories: IM-RP %d vs CONT-V %d", adpt.TrajectoryCount(), ctrl.TrajectoryCount())
	}
	if adpt.AggregateTaskTime <= ctrl.AggregateTaskTime {
		t.Errorf("aggregate task time: IM-RP %v vs CONT-V %v", adpt.AggregateTaskTime, ctrl.AggregateTaskTime)
	}
	if adpt.SubPipelines == 0 {
		t.Error("IM-RP spawned no sub-pipelines")
	}
	// IM-RP design quality is more consistent: smaller final-iteration
	// spread (Fig. 2's error bars).
	_, adStd := adpt.IterationSummary(4, PLDDTOf)
	_, cdStd := ctrl.IterationSummary(4, PLDDTOf)
	if adStd >= cdStd {
		t.Errorf("final-iteration pLDDT spread: IM-RP %v vs CONT-V %v", adStd, cdStd)
	}
}

func TestCampaignDeterminism(t *testing.T) {
	run := func() *Result {
		targets := smallTargets(t, 3, 7)
		res, err := RunAdaptive(targets, fastAdaptive(7))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.TrajectoryCount() != b.TrajectoryCount() || a.SubPipelines != b.SubPipelines {
		t.Fatalf("campaign shape diverged: %d/%d vs %d/%d",
			a.TrajectoryCount(), a.SubPipelines, b.TrajectoryCount(), b.SubPipelines)
	}
	for i := range a.Trajectories {
		if a.Trajectories[i].Metrics != b.Trajectories[i].Metrics {
			t.Fatalf("trajectory %d metrics diverged", i)
		}
		if a.Trajectories[i].PipelineID != b.Trajectories[i].PipelineID {
			t.Fatalf("trajectory %d pipeline diverged", i)
		}
	}
	if a.CPUUtilization != b.CPUUtilization || a.Makespan != b.Makespan {
		t.Fatal("timeline diverged between identical campaigns")
	}
}

func TestFinalCycleNonAdaptiveDrop(t *testing.T) {
	// Fig. 3: with adaptivity off in the final cycle, the median design
	// quality of the last iteration deteriorates.
	screen, err := workload.MinedScreen(44, 24, workload.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := AdaptiveConfig(44)
	cfg.Pipeline.FinalCycleAdaptive = false
	res, err := RunAdaptive(screen, cfg)
	if err != nil {
		t.Fatal(err)
	}
	it3, _ := res.IterationSummary(3, PLDDTOf)
	it4, _ := res.IterationSummary(4, PLDDTOf)
	if !(it4 < it3) {
		t.Fatalf("no final-cycle deterioration: it3 %v it4 %v", it3, it4)
	}
	// And the first three iterations improve continuously.
	it1, _ := res.IterationSummary(1, PLDDTOf)
	it2, _ := res.IterationSummary(2, PLDDTOf)
	if !(it1 < it2 && it2 < it3) {
		t.Fatalf("iterations 1-3 not improving: %v %v %v", it1, it2, it3)
	}
}

func TestResultAccessors(t *testing.T) {
	targets := smallTargets(t, 3, 9)
	res, err := RunControl(targets, fastControl(9))
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations() != 3 {
		t.Fatalf("Iterations = %d", res.Iterations())
	}
	if res.NetDelta(PLDDTOf) != res.FinalMedian(PLDDTOf)-medianOver(res.Starting, PLDDTOf) {
		t.Fatal("NetDelta inconsistent with medians")
	}
	med, std := res.IterationSummary(1, PTMOf)
	if med <= 0 || med > 1 || std < 0 {
		t.Fatalf("IterationSummary(1) = %v, %v", med, std)
	}
	if len(res.Targets) != 3 || len(res.Starting) != 3 || len(res.FinalBest) != 3 {
		t.Fatal("per-target maps incomplete")
	}
	if res.TotalCores != 28 || res.TotalGPUs != 4 {
		t.Fatal("capacity not recorded")
	}
	if len(res.CPUSeries) == 0 || len(res.GPUSeries) == 0 {
		t.Fatal("series missing")
	}
	if res.Phases["bootstrap"] <= 0 || res.Phases["running"] <= 0 {
		t.Fatalf("phases missing: %v", res.Phases)
	}
}

func TestConfigValidation(t *testing.T) {
	targets := smallTargets(t, 1, 10)
	if _, err := NewCoordinator(nil, fastAdaptive(1)); err == nil {
		t.Error("empty targets accepted")
	}
	if _, err := NewCoordinator([]*workload.Target{targets[0], targets[0]}, fastAdaptive(1)); err == nil {
		t.Error("duplicate targets accepted")
	}
	if _, err := NewCoordinator([]*workload.Target{nil}, fastAdaptive(1)); err == nil {
		t.Error("nil target accepted")
	}
	bad := fastAdaptive(1)
	bad.Sub.Cycles = 0
	if _, err := NewCoordinator(targets, bad); err == nil {
		t.Error("bad sub policy accepted")
	}
	bad = fastAdaptive(1)
	bad.Pipeline.Cycles = 0
	if _, err := NewCoordinator(targets, bad); err == nil {
		t.Error("bad pipeline params accepted")
	}
	bad = fastAdaptive(1)
	bad.Machine.Nodes = 0
	if _, err := NewCoordinator(targets, bad); err == nil {
		t.Error("bad machine accepted")
	}
}

func TestRunTwiceFails(t *testing.T) {
	targets := smallTargets(t, 1, 11)
	coord, err := NewCoordinator(targets, fastControl(11))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := coord.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := coord.Run(); err == nil {
		t.Fatal("second Run accepted")
	}
}

// TestWalltimeExpiryReportsError: a pilot walltime far too short for any
// cycle kills every pipeline, and the campaign reports the loss in its
// fault accounting rather than as an error.
func TestWalltimeExpiryReportsError(t *testing.T) {
	targets := smallTargets(t, 2, 12)
	cfg := fastAdaptive(12)
	cfg.Fault.Walltime = 30 * time.Minute
	res, err := RunAdaptive(targets, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults == nil || res.Faults.KilledPipelines != len(targets) || res.Faults.WalltimeKills == 0 {
		t.Fatalf("fault stats %+v, want %d killed pipelines and walltime kills", res.Faults, len(targets))
	}
}

// TestWalltimeOutlastingWorkIsInert: a pilot walltime that outlasts the
// campaign's work ends nothing early; the campaign finishes with the
// makespan and task count of the same campaign without one.
func TestWalltimeOutlastingWorkIsInert(t *testing.T) {
	targets := smallTargets(t, 2, 12)
	free, err := RunAdaptive(targets, fastAdaptive(12))
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastAdaptive(12)
	cfg.Fault.Walltime = 1000 * time.Hour
	bounded, err := RunAdaptive(smallTargets(t, 2, 12), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if bounded.Makespan != free.Makespan || bounded.TaskCount != free.TaskCount {
		t.Fatalf("walltime 1000h: makespan %v, %d tasks; without walltime %v, %d tasks",
			bounded.Makespan, bounded.TaskCount, free.Makespan, free.TaskCount)
	}
}

func TestMaxConcurrentLimitsOverlap(t *testing.T) {
	targets := smallTargets(t, 3, 13)
	cfg := fastAdaptive(13)
	cfg.MaxConcurrent = 1
	cfg.Sub.Enabled = false
	res, err := RunAdaptive(targets, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// One pipeline at a time: trajectories must be grouped by pipeline,
	// never interleaved.
	seen := map[string]bool{}
	last := ""
	for _, tr := range res.Trajectories {
		if tr.PipelineID != last {
			if seen[tr.PipelineID] {
				t.Fatalf("pipeline %s trajectories interleaved", tr.PipelineID)
			}
			seen[tr.PipelineID] = true
			last = tr.PipelineID
		}
	}
}

func TestSubPipelineTrajectoriesReprocessLowQualityCycles(t *testing.T) {
	targets := smallTargets(t, 4, 14)
	cfg := fastAdaptive(14)
	res, err := RunAdaptive(targets, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.SubPipelines == 0 {
		t.Skip("no sub-pipelines spawned at this seed")
	}
	for _, tr := range res.Trajectories {
		if !tr.Sub {
			continue
		}
		// Sub-pipelines run a single refinement cycle over an existing
		// backbone: their trajectory cycle index is 1, and the
		// generation they produce is within the campaign's range.
		if tr.Cycle != 1 {
			t.Fatalf("sub trajectory cycle = %d", tr.Cycle)
		}
		if tr.Generation < 1 || tr.Generation > cfg.Pipeline.Cycles {
			t.Fatalf("sub trajectory generation = %d", tr.Generation)
		}
	}
}
