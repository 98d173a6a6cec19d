package report

// Golden layer for the six sweep comparison reports: every table and CSV
// the policy, fault, elastic, chaos, preempt and tenant sweeps print is
// rendered over one synthetic result set and pinned byte for byte. The
// set is built to reach the reports' edge cases: two fault seeds with a
// fault-free baseline for only one, nil entries, failure rates and
// checkpoint cadences given out of order, kill and drain cells
// interleaved, several steering labels, zero makespans on either side of
// a ratio, and a tenant service whose admission policy is unnamed.
//
// Regenerate deliberately with:
//
//	UPDATE_GOLDEN=1 go test -run TestGoldenReports ./internal/report

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"impress/internal/core"
	"impress/internal/fault"
	"impress/internal/landscape"
	"impress/internal/pipeline"
	"impress/internal/simclock"
	"impress/internal/trace"
)

const goldenReportsPath = "testdata/reports.golden"

// goldenRun fabricates a fault-free campaign result whose counters all
// derive from n, so every row of every report differs: n trajectories,
// a DONE task that queued n minutes, utilization and net pLDDT that grow
// with n.
func goldenRun(seed uint64, n int, steer string, makespan time.Duration, policies ...string) *core.Result {
	wait := simclock.Time(time.Duration(n) * time.Minute)
	return &core.Result{
		Approach:       "IM-RP",
		Seed:           seed,
		Steer:          steer,
		Policies:       policies,
		Makespan:       makespan,
		CPUUtilization: 0.05 * float64(n),
		GPUUtilization: 0.03 * float64(n),
		NodeTransfers:  n % 4,
		SteerVetoes:    n % 3,
		Trajectories:   make([]pipeline.Trajectory, n),
		Starting:       map[string]landscape.Metrics{"t": {PLDDT: 70}},
		FinalBest:      map[string]landscape.Metrics{"t": {PLDDT: 70 + 0.75*float64(n)}},
		TaskRecords: []trace.TaskRecord{
			{ID: "task.1", State: "DONE", Placed: true, Cores: 4,
				SetupAt: wait, RunAt: wait, EndedAt: wait.Add(time.Hour)},
		},
	}
}

// goldenFaulty adds a fault record to goldenRun: the cell coordinates
// (recovery, failure rate, checkpoint cadence, kill or drain) plus
// counters derived from n, and a FAILED task so goodput drops below 1.
func goldenFaulty(seed uint64, n int, recovery string, rate float64, steer string,
	ckpt time.Duration, drain bool, makespan time.Duration, policies ...string) *core.Result {
	r := goldenRun(seed, n, steer, makespan, policies...)
	r.CheckpointInterval = ckpt
	if drain {
		r.WalltimeGrace = 10 * time.Minute
	}
	r.TaskRecords = append(r.TaskRecords, trace.TaskRecord{
		ID: "task.2", State: "FAILED", Placed: true, Cores: 2, Fault: fault.KindPreempt.String(),
		SetupAt: 0, EndedAt: simclock.Time(time.Duration(n) * 10 * time.Minute),
	})
	r.Faults = &core.FaultStats{
		Spec:                fault.Spec{TaskFailProb: rate},
		Recovery:            recovery,
		TaskFaults:          n,
		NodeCrashes:         n % 5,
		Evictions:           n % 3,
		Resumes:             n % 2,
		Resubmissions:       n + 1,
		TerminalFailures:    n % 2,
		WalltimeKills:       (n + 1) % 2,
		KilledPipelines:     n % 3,
		AttemptsHistogram:   map[int]int{1: 10 + n, 1 + n%3: 2},
		DowntimeNodeSeconds: 900 * float64(n),
		WastedCoreHours:     0.25 * float64(n),
		PreemptedCoreHours:  0.125 * float64(n),
		DomainCrashes:       map[string]int{"rackB": n % 5, "": 1, "rackA": 2},
		DomainOutages:       n % 2,
		MaintenanceWindows:  (n + 1) % 3,
	}
	return r
}

// goldenTenants fabricates a multi-tenant service result: one tenant per
// slowdown, each with a runtime of 4 h and the wait the slowdown implies.
func goldenTenants(seed uint64, admission string, makespan time.Duration, slowdowns ...float64) *core.Result {
	r := &core.Result{Approach: "TENANTS", Seed: seed, Admission: admission, Makespan: makespan}
	for i, sd := range slowdowns {
		runtime := 4 * time.Hour
		wait := time.Duration(float64(runtime) * (sd - 1))
		r.Tenants = append(r.Tenants, core.TenantStat{
			Name: string(rune('a' + i)), Weight: float64(1 + i%2), Nodes: 2 + i,
			Arrived: time.Duration(i) * time.Hour, Admitted: time.Duration(i)*time.Hour + wait,
			Finished: time.Duration(i)*time.Hour + wait + runtime,
			Wait:     wait, Runtime: runtime, Slowdown: sd,
			Trajectories: 3 + i, Tasks: 40 + i, Reclaimed: i % 2, Granted: (i + 1) % 2,
		})
	}
	return r
}

// goldenResults is the pinned synthetic result set. Seed 1 has a
// fault-free baseline; seed 2 has none; seeds 3 and 4 have only tenant
// services (which the fault reports read as baselines), seed 4's with a
// zero makespan.
func goldenResults() []*core.Result {
	return []*core.Result{
		nil,
		goldenRun(1, 6, "", 10*time.Hour, "fifo"),
		goldenFaulty(2, 7, "retry", 0.30, "greedy", 0, false, 14*time.Hour, "fifo"),
		goldenFaulty(1, 5, "retry", 0.05, "greedy", 15*time.Minute, true, 12*time.Hour, "backfill"),
		nil,
		goldenFaulty(1, 4, "backoff", 0.30, "", time.Hour, false, 11*time.Hour, "fifo", "bestfit"),
		goldenFaulty(2, 8, "retry", 0.05, "hysteresis", 15*time.Minute, false, 13*time.Hour, "backfill"),
		goldenFaulty(1, 9, "retry", 0.30, "greedy", 0, true, 15*time.Hour, "fifo"),
		goldenFaulty(2, 3, "backoff", 0.05, "preempt", time.Hour, true, 9*time.Hour),
		goldenRun(2, 2, "greedy", 0, "bestfit"),
		goldenFaulty(4, 1, "none", 0.15, "preempt", 0, false, 8*time.Hour, "fifo"),
		goldenFaulty(3, 10, "none", 0.15, "hysteresis", time.Hour, true, 0, "backfill"),
		goldenTenants(3, "weighted-fair", 20*time.Hour, 1.5, 2, 1.25),
		nil,
		goldenTenants(4, "", 0, 1, 3, 5, 1.75),
		goldenTenants(3, "fcfs-admit", 22*time.Hour, 1.1),
	}
}

// renderReports renders every sweep comparison report and its CSV over
// results, one section each.
func renderReports(t *testing.T, results []*core.Result) string {
	t.Helper()
	reports := []struct {
		name string
		text func([]*core.Result) string
		csv  func(io.Writer, []*core.Result) error
	}{
		{"policy", PolicyCompare, PolicyCompareCSV},
		{"resilience", Resilience, ResilienceCSV},
		{"elastic", Elastic, ElasticCSV},
		{"chaos", Chaos, ChaosCSV},
		{"preemption", Preemption, PreemptionCSV},
		{"fairness", Fairness, FairnessCSV},
	}
	var sb strings.Builder
	for _, rep := range reports {
		sb.WriteString("== " + rep.name + "\n")
		sb.WriteString(rep.text(results))
		sb.WriteString("-- csv\n")
		if err := rep.csv(&sb, results); err != nil {
			t.Fatalf("%s CSV: %v", rep.name, err)
		}
	}
	return sb.String()
}

func TestGoldenReports(t *testing.T) {
	got := renderReports(t, goldenResults())
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(goldenReportsPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenReportsPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenReportsPath)
	if err != nil {
		t.Fatalf("reading golden file: %v (regenerate with UPDATE_GOLDEN=1)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < min(len(gl), len(wl)); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("reports diverge from %s at line %d:\n got: %q\nwant: %q", goldenReportsPath, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("reports diverge from %s in length: %d lines, want %d", goldenReportsPath, len(gl), len(wl))
	}
}

// TestGoldenReportsEmpty pins the header-only rendering of every report
// over an empty and an all-nil result set, which must agree.
func TestGoldenReportsEmpty(t *testing.T) {
	empty := renderReports(t, nil)
	if allNil := renderReports(t, []*core.Result{nil, nil}); allNil != empty {
		t.Fatalf("all-nil results render differently from none:\n%s\nvs\n%s", allNil, empty)
	}
	for _, want := range []string{
		"(no fault-free baseline runs: makespan inflation unavailable)",
		"(no frozen-split runs: speedup unavailable)",
	} {
		if !strings.Contains(empty, want) {
			t.Fatalf("empty rendering lacks %q:\n%s", want, empty)
		}
	}
}
