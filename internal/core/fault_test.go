package core

// Coordinator-level fault-injection tests: campaigns survive injected
// failures (instead of erroring out), book resilience statistics, and
// stay deterministic.

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"impress/internal/fault"
)

func faultyConfig(seed uint64, rate float64, recovery string) Config {
	cfg := fastAdaptive(seed)
	cfg.Fault = fault.Spec{TaskFailProb: rate}
	cfg.Recovery = recovery
	return cfg
}

// TestFaultCampaignSurvivesWithoutRecovery: with recovery "none" every
// injected fault kills its pipeline, yet the campaign completes and
// reports the damage instead of failing.
func TestFaultCampaignSurvivesWithoutRecovery(t *testing.T) {
	targets := smallTargets(t, 3, 21)
	res, err := RunAdaptive(targets, faultyConfig(21, 0.5, "none"))
	if err != nil {
		t.Fatalf("fault-injected campaign errored: %v", err)
	}
	fs := res.Faults
	if fs == nil {
		t.Fatal("fault stats missing")
	}
	if fs.TaskFaults == 0 {
		t.Fatal("no faults injected at rate 0.5")
	}
	if fs.Resubmissions != 0 {
		t.Fatalf("recovery none resubmitted %d attempts", fs.Resubmissions)
	}
	if fs.KilledPipelines == 0 {
		t.Fatal("terminal failures killed no pipeline")
	}
	if fs.KilledPipelines != res.FailedTasks {
		// One terminal task failure kills exactly one pipeline here
		// (every stage has a single task in this configuration).
		t.Fatalf("killed %d pipelines from %d failed tasks", fs.KilledPipelines, res.FailedTasks)
	}
	if res.Goodput() >= 1 {
		t.Fatalf("goodput %v with %d faults", res.Goodput(), fs.TaskFaults)
	}
	if fs.WastedCoreHours <= 0 {
		t.Fatal("no wasted core-hours booked")
	}
}

// TestFaultCampaignRecoversWithRetry: retry absorbs most faults, so the
// campaign keeps more pipelines alive than recovery "none" at the same
// rate, and the tallies balance.
func TestFaultCampaignRecoversWithRetry(t *testing.T) {
	targets := smallTargets(t, 3, 21)
	none, err := RunAdaptive(targets, faultyConfig(21, 0.35, "none"))
	if err != nil {
		t.Fatal(err)
	}
	retry, err := RunAdaptive(smallTargets(t, 3, 21), faultyConfig(21, 0.35, "retry"))
	if err != nil {
		t.Fatal(err)
	}
	fs := retry.Faults
	if fs.Resubmissions == 0 {
		t.Fatal("retry never resubmitted")
	}
	if fs.RetriedTasks != fs.Resubmissions {
		t.Fatalf("coordinator absorbed %d retries, task manager booked %d", fs.RetriedTasks, fs.Resubmissions)
	}
	if fs.KilledPipelines >= none.Faults.KilledPipelines && none.Faults.KilledPipelines > 0 {
		t.Fatalf("retry killed %d pipelines, none killed %d — recovery bought nothing",
			fs.KilledPipelines, none.Faults.KilledPipelines)
	}
	if got := labelOf(retry.Recoveries); got != "retry" {
		t.Fatalf("recovery label %q", got)
	}
	// Attempts histogram: some chains took more than one attempt.
	if fs.MaxAttempts() < 2 {
		t.Fatalf("attempts histogram %v shows no retries", fs.AttemptsHistogram)
	}
}

// TestNodeCrashCampaignCompletes: the node-crash model on the paper's
// single-node machine removes all capacity during repair windows; the
// campaign must still finish deterministically with downtime booked.
func TestNodeCrashCampaignCompletes(t *testing.T) {
	targets := smallTargets(t, 2, 9)
	cfg := fastAdaptive(9)
	cfg.Fault = fault.Spec{NodeMTBF: 6 * time.Hour, NodeRepair: 20 * time.Minute}
	cfg.Recovery = "retry"
	res, err := RunAdaptive(targets, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fs := res.Faults
	if fs.NodeCrashes == 0 {
		t.Fatal("no node crash in a multi-hour campaign at MTBF 6h")
	}
	max := float64(fs.NodeCrashes) * (20 * time.Minute).Seconds()
	if fs.DowntimeNodeSeconds <= 0 || fs.DowntimeNodeSeconds > max {
		t.Fatalf("downtime %vs outside (0, %vs] for %d crashes", fs.DowntimeNodeSeconds, max, fs.NodeCrashes)
	}
}

// TestFaultZeroConfigMatchesBaseline: Config with a zero fault spec and
// explicit recovery "none" produces byte-identical results to the plain
// config — the compiled-in-but-disabled guarantee at the core level.
func TestFaultZeroConfigMatchesBaseline(t *testing.T) {
	render := func(cfg Config) string {
		res, err := RunAdaptive(smallTargets(t, 2, 17), cfg)
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		fmt.Fprintf(&sb, "%d %d %.17g %.17g %d %d\n", int64(res.Makespan), int64(res.AggregateTaskTime),
			res.CPUUtilization, res.GPUUtilization, res.TaskCount, res.TrajectoryCount())
		for _, tr := range res.TaskRecords {
			fmt.Fprintf(&sb, "%s %d %d %d %d %s\n", tr.ID,
				int64(tr.Submitted), int64(tr.SetupAt), int64(tr.RunAt), int64(tr.EndedAt), tr.State)
		}
		return sb.String()
	}
	plain := fastAdaptive(17)
	guarded := fastAdaptive(17)
	guarded.Fault = fault.Spec{}
	guarded.Recovery = "none"
	a, b := render(plain), render(guarded)
	if a != b {
		t.Fatal("zero fault spec + recovery none diverged from the plain config")
	}
}

// TestFaultCampaignDeterminism: a fault-injected campaign replays
// byte-identically, including its resilience statistics.
func TestFaultCampaignDeterminism(t *testing.T) {
	render := func() string {
		res, err := RunAdaptive(smallTargets(t, 2, 33), faultyConfig(33, 0.4, "elsewhere"))
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		fmt.Fprintf(&sb, "%+v\n", *res.Faults)
		fmt.Fprintf(&sb, "%d %.17g\n", int64(res.Makespan), res.Goodput())
		for _, tr := range res.TaskRecords {
			fmt.Fprintf(&sb, "%s %d %d %d %s %d %s\n", tr.ID, int64(tr.Submitted),
				int64(tr.SetupAt), int64(tr.EndedAt), tr.State, tr.Attempt, tr.Fault)
		}
		return sb.String()
	}
	if a, b := render(), render(); a != b {
		t.Fatal("fault-injected campaign is not deterministic")
	}
}
