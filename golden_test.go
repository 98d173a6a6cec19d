package impress_test

// Golden-trace regression layer: the pair scenario's full event trace,
// per-task timeline, and Table-I numbers at seed 42 are pinned to a golden
// file. Any change to the scheduler, pilot runtime, or coordinator that
// shifts default-policy behaviour in any way — event order, task
// timestamps, utilization, quality metrics — fails this test, so sprawling
// refactors (like making the agent scheduling policy pluggable) can prove
// they changed nothing under the defaults.
//
// Regenerate deliberately with:
//
//	UPDATE_GOLDEN=1 go test -run TestGoldenPairTrace .

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"impress"
	"impress/internal/report"
	"impress/internal/tenancy"
	"impress/internal/xrand"
)

const goldenPairPath = "testdata/golden/pair_seed42.golden"

// renderPairTrace runs the pair scenario at seed 42 with the given
// params and renders its complete observable behaviour as canonical
// text: one section per campaign (summary, event trace, per-task
// timeline with raw-nanosecond timestamps) plus the Table I rendering of
// the result pair.
func renderPairTrace(t *testing.T, p impress.ScenarioParams) string {
	t.Helper()
	p.Seed = 42
	campaigns, err := impress.BuildScenario("pair", p)
	if err != nil {
		t.Fatal(err)
	}
	return renderPairOutcomes(t, impress.RunCampaigns(campaigns, 1))
}

// renderPairOutcomes renders a pair of campaign outcomes in the golden
// format — shared between the direct pair run and the single-tenant
// service replay, which must produce identical bytes.
func renderPairOutcomes(t *testing.T, outs []impress.CampaignOutcome) string {
	t.Helper()
	var sb strings.Builder
	for _, o := range outs {
		if o.Err != nil {
			t.Fatalf("campaign %s failed: %v", o.Name, o.Err)
		}
		fmt.Fprintf(&sb, "== %s\n", o.Name)
		fmt.Fprintf(&sb, "%s\n", impress.Summary(o.Result))
		sb.WriteString("-- events\n")
		for _, e := range o.Result.Events {
			sb.WriteString(e.String())
			sb.WriteByte('\n')
		}
		sb.WriteString("-- tasks\n")
		for _, tr := range o.Result.TaskRecords {
			fmt.Fprintf(&sb, "%s %s sub=%d setup=%d run=%d end=%d cores=%d gpus=%d %s\n",
				tr.ID, tr.Name, int64(tr.Submitted), int64(tr.SetupAt), int64(tr.RunAt),
				int64(tr.EndedAt), tr.Cores, tr.GPUs, tr.State)
		}
	}
	sb.WriteString("== table1\n")
	sb.WriteString(report.TableI(outs[0].Result, outs[1].Result))
	return sb.String()
}

// readGolden returns the pinned pair trace.
func readGolden(t *testing.T) string {
	t.Helper()
	want, err := os.ReadFile(goldenPairPath)
	if err != nil {
		t.Fatalf("reading golden file: %v (regenerate with UPDATE_GOLDEN=1)", err)
	}
	return string(want)
}

// firstDiff returns the 1-based number and contents of the first line
// where got and want differ, or line 0 when one is a line prefix of the
// other (only the lengths differ), along with both line counts.
func firstDiff(got, want string) (line int, g, w string, gotLines, wantLines int) {
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < min(len(gl), len(wl)); i++ {
		if gl[i] != wl[i] {
			return i + 1, gl[i], wl[i], len(gl), len(wl)
		}
	}
	return 0, "", "", len(gl), len(wl)
}

// goldenCase is one replay of the pinned pair trace: the scenario params
// it runs with and the failure message when its bytes diverge.
type goldenCase struct {
	params impress.ScenarioParams
	msg    string
}

// checkGoldenInert renders each case and fails with the case's message
// unless its trace is byte-identical to the golden file. The inertness
// tests compare against the file TestGoldenPairTrace regenerates, so
// they skip while UPDATE_GOLDEN is set.
func checkGoldenInert(t *testing.T, cases ...goldenCase) {
	t.Helper()
	if os.Getenv("UPDATE_GOLDEN") != "" {
		t.Skip("golden file is regenerated by TestGoldenPairTrace")
	}
	want := readGolden(t)
	forEachKernel(t, func(t *testing.T) {
		for _, c := range cases {
			if got := renderPairTrace(t, c.params); got != want {
				t.Fatal(c.msg)
			}
		}
	})
}

// forEachKernel runs f once per kernel path the CPU has (xrand.Kernels),
// as /generic and /avx512 subtests with the AVX-512 kernels (the
// ziggurat row fills and ConditionalEnergies) switched to that path. On
// a CPU without them, /avx512 skips and says why.
func forEachKernel(t *testing.T, f func(t *testing.T)) {
	for _, kernel := range []string{"generic", "avx512"} {
		t.Run(kernel, func(t *testing.T) {
			if !slices.Contains(xrand.Kernels(), kernel) {
				t.Skip("this CPU lacks AVX-512 F, DQ or VL (or the OS does not save its registers): the kernels take the generic path only")
			}
			defer xrand.UseKernel(kernel)()
			t.Logf("kernels on the %s path", kernel)
			f(t)
		})
	}
}

// TestGoldenPairTrace runs pair@42 once per kernel path the CPU has
// (forEachKernel): both paths must render the committed golden byte for
// byte.
func TestGoldenPairTrace(t *testing.T) {
	if os.Getenv("UPDATE_GOLDEN") != "" {
		got := renderPairTrace(t, impress.ScenarioParams{})
		if err := os.MkdirAll(filepath.Dir(goldenPairPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPairPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", goldenPairPath, len(got))
		return
	}
	want := readGolden(t)
	forEachKernel(t, func(t *testing.T) {
		got := renderPairTrace(t, impress.ScenarioParams{})
		if got == want {
			return
		}
		line, g, w, gotLines, wantLines := firstDiff(got, want)
		if line > 0 {
			t.Fatalf("golden trace diverged at line %d:\n got: %s\nwant: %s\n"+
				"(default-policy behaviour must stay bit-identical; regenerate only for intentional changes)",
				line, g, w)
		}
		t.Fatalf("golden trace length changed: got %d lines, want %d", gotLines, wantLines)
	})
}

// TestGoldenTraceDeterminism guards the golden harness itself: two
// renderings in one process must be byte-identical, otherwise the golden
// comparison would flake rather than catch regressions.
func TestGoldenTraceDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("double campaign run in -short mode")
	}
	a, b := renderPairTrace(t, impress.ScenarioParams{}), renderPairTrace(t, impress.ScenarioParams{})
	if a != b {
		t.Fatal("pair trace rendering is not deterministic within one process")
	}
}

// TestGoldenPairTraceSteerDisabled proves the steering subsystem's
// inertness claim: with internal/steer compiled in but the policy set to
// an explicit "none", the seed-42 pair trace is byte-identical to the
// pre-steering golden file. Any stray controller tick, freed-watermark
// bump, or ledger reshaping that leaks from the elastic layer into the
// frozen path fails this test.
func TestGoldenPairTraceSteerDisabled(t *testing.T) {
	checkGoldenInert(t, goldenCase{impress.ScenarioParams{Steer: "none"},
		"steering subsystem disabled is not inert: the seed-42 pair trace diverged from the golden file"})
}

// TestGoldenPairTraceTelemetryEnabled proves the telemetry layer is a
// pure observer: with the recorder switched ON the seed-42 pair trace is
// still byte-identical to the golden file. Spans, gauges, instants, and
// steering-tick logs may only read simulation state — any telemetry hook
// that perturbs scheduling order, timestamps, or random draws fails here.
// (The disabled direction — no recorder, no divergence — is what every
// other golden test in this file already proves, since they run with
// telemetry off.)
func TestGoldenPairTraceTelemetryEnabled(t *testing.T) {
	checkGoldenInert(t, goldenCase{impress.ScenarioParams{Telemetry: true},
		"telemetry recorder is not a pure observer: the seed-42 pair trace diverged from the golden file"})
}

// TestGoldenPairTraceCheckpointInert proves the checkpointed-preemption
// subsystem's inertness claim, in both directions. With the interval at
// its explicit zero (checkpointing off, the documented default) the
// seed-42 pair trace is byte-identical to the pre-preemption golden
// file. And because checkpoints are lazy — banked progress is computed
// only at an interruption, never scheduled as an event or drawn from an
// RNG stream — even a NONZERO interval must replay byte-identically when
// nothing ever evicts: the pair scenario runs fault-free and unsteered,
// so the checkpoint plumbing threads through every pilot yet may not
// perturb a single timestamp.
func TestGoldenPairTraceCheckpointInert(t *testing.T) {
	checkGoldenInert(t,
		goldenCase{impress.ScenarioParams{CheckpointInterval: 0},
			"checkpoint-interval 0 is not inert: the seed-42 pair trace diverged from the golden file"},
		goldenCase{impress.ScenarioParams{CheckpointInterval: 30 * time.Minute},
			"lazy checkpointing leaked into the healthy path: a 30m interval with nothing evicting diverged from the golden file"})
}

// TestGoldenPairTraceSingleTenantService proves the multi-tenant
// service's single-tenant parity claim, the guard in the other direction
// from the suite's goldens-pass-unchanged check: each seed-42 pair
// campaign, wrapped as the sole tenant of a shared-cluster service whose
// pool is exactly the campaign's own machine (instant arrival,
// fcfs-admit, reclaim frozen), must replay the golden trace byte for
// byte. The tenant runs behind the lease API, on the service's shared
// engine, through admission control — and none of that may perturb an
// event, a timestamp, or a random draw.
func TestGoldenPairTraceSingleTenantService(t *testing.T) {
	if os.Getenv("UPDATE_GOLDEN") != "" {
		t.Skip("golden file is regenerated by TestGoldenPairTrace")
	}
	forEachKernel(t, func(t *testing.T) {
		campaigns, err := impress.BuildScenario("pair", impress.ScenarioParams{Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		var outs []impress.CampaignOutcome
		for _, c := range campaigns {
			svc, err := tenancy.NewService(impress.TenancySpec{
				Config: impress.TenancyConfig{
					Machine:   c.Config.Machine,
					Seed:      c.Seed,
					Arrival:   "instant",
					Admission: "fcfs-admit",
					Reclaim:   "none",
				},
				Tenants: []impress.TenantSpec{{
					Name:    c.Name,
					Seed:    c.Seed,
					Nodes:   c.Config.Machine.Nodes,
					Targets: c.Targets,
					Config:  c.Config,
				}},
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := svc.Run(); err != nil {
				t.Fatal(err)
			}
			res := svc.TenantResults()[0]
			outs = append(outs, impress.CampaignOutcome{
				Name: c.Name, Seed: c.Seed, Result: res,
			})
		}
		got := renderPairOutcomes(t, outs)
		if want := readGolden(t); got != want {
			line, g, w, gotLines, wantLines := firstDiff(got, want)
			if line > 0 {
				t.Fatalf("single-tenant service replay diverged from the golden trace at line %d:\n got: %s\nwant: %s",
					line, g, w)
			}
			t.Fatalf("single-tenant service replay changed the trace length: got %d lines, want %d", gotLines, wantLines)
		}
	})
}

// TestGoldenPairTraceFaultDisabled proves the fault subsystem's inertness
// claim: with the subsystem compiled in but disabled — an explicitly zero
// failure-model spec and recovery "none" — the seed-42 pair trace is
// byte-identical to the pre-fault golden file. Any stray random draw,
// scheduled event, or behavioural gate that leaks from the fault layer
// into the healthy path fails this test.
func TestGoldenPairTraceFaultDisabled(t *testing.T) {
	checkGoldenInert(t, goldenCase{impress.ScenarioParams{Fault: impress.FaultSpec{}, Recovery: "none"},
		"fault subsystem disabled is not inert: the seed-42 pair trace diverged from the golden file"})
}
