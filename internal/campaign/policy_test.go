package campaign

import (
	"fmt"
	"strings"
	"testing"

	"impress/internal/core"
	"impress/internal/report"
	"impress/internal/sched"
	"impress/internal/workload"
)

// miniCampaign builds a small adaptive campaign pinned to one scheduling
// policy — big enough to exercise queueing and sub-pipelines, small
// enough to run many times in a test.
func miniCampaign(t *testing.T, policy string) Campaign {
	t.Helper()
	target, err := workload.NewTarget(3, "MINI", 52, workload.AlphaSynucleinTail4, workload.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.AdaptiveConfig(3)
	cfg.Policy = policy
	cfg.Pipeline.Cycles = 2
	cfg.Pipeline.MPNN.NumSequences = 5
	cfg.Pipeline.MPNN.Sweeps = 2
	return Campaign{Name: "mini/" + policy, Seed: 3, Targets: []*workload.Target{target}, Config: cfg}
}

// renderResult serializes the observable result exactly: raw-nanosecond
// task timelines, full-precision utilization, policy labels. Two runs of
// the same campaign must produce byte-identical renderings.
func renderResult(r *core.Result) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s policies=%v makespan=%d agg=%d cpu=%.17g gpu=%.17g traj=%d tasks=%d subs=%d\n",
		r.Approach, r.Policies, int64(r.Makespan), int64(r.AggregateTaskTime),
		r.CPUUtilization, r.GPUUtilization, r.TrajectoryCount(), r.TaskCount, r.SubPipelines)
	for _, tr := range r.TaskRecords {
		fmt.Fprintf(&sb, "%s %s %d %d %d %d %s\n",
			tr.ID, tr.Name, int64(tr.Submitted), int64(tr.SetupAt), int64(tr.RunAt), int64(tr.EndedAt), tr.State)
	}
	fmt.Fprintf(&sb, "%s\n", report.Summary(r))
	return sb.String()
}

// TestCrossPolicyDeterminism: the same campaign under the same policy,
// run twice, is byte-identical — for every registered policy. CI runs
// this under -race, so any hidden shared state across runs also
// surfaces.
func TestCrossPolicyDeterminism(t *testing.T) {
	for _, pol := range sched.Names() {
		pol := pol
		t.Run(pol, func(t *testing.T) {
			runIt := func() string {
				out := Run([]Campaign{miniCampaign(t, pol)}, 1)[0]
				if out.Err != nil {
					t.Fatal(out.Err)
				}
				if got := out.Result.PolicyLabel(); got != pol {
					t.Fatalf("resolved policy %q, want %q", got, pol)
				}
				return renderResult(out.Result)
			}
			a, b := runIt(), runIt()
			if a != b {
				t.Fatalf("policy %s not deterministic:\n--- run 1\n%s\n--- run 2\n%s", pol, a, b)
			}
		})
	}
}

// TestPoliciesProduceDistinctSchedules guards against the policy layer
// silently collapsing into one behaviour: on a contended workload (the
// four named PDZ domains sharing one node), at least two distinct task
// timelines must appear — fifo and the backfilling family diverge
// whenever a wide task blocks the head.
func TestPoliciesProduceDistinctSchedules(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaigns per policy in -short mode")
	}
	cs, err := Build("policy-compare", Params{Seed: 42, Seeds: 1})
	if err != nil {
		t.Fatal(err)
	}
	outs := Run(cs, 0)
	seen := make(map[string][]string)
	for _, out := range outs {
		if out.Err != nil {
			t.Fatal(out.Err)
		}
		key := renderResult(out.Result)
		// Strip the first line (contains the policy name) so identical
		// schedules collide.
		key = key[strings.Index(key, "\n")+1:]
		seen[key] = append(seen[key], out.Result.PolicyLabel())
	}
	if len(seen) < 2 {
		t.Fatalf("all %d policies produced the identical schedule", len(outs))
	}
}

func TestPolicyCompareScenario(t *testing.T) {
	cs, err := Build("policy-compare", Params{Seed: 9, Seeds: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := 2 * len(sched.Names())
	if len(cs) != want {
		t.Fatalf("policy-compare built %d campaigns, want %d", len(cs), want)
	}
	names := make(map[string]bool)
	policies := make(map[string]bool)
	for _, c := range cs {
		if names[c.Name] {
			t.Fatalf("duplicate campaign name %q", c.Name)
		}
		names[c.Name] = true
		if c.Config.Policy == "" {
			t.Fatalf("campaign %q has no policy", c.Name)
		}
		policies[c.Config.Policy] = true
		if !c.Config.Pipeline.Adaptive {
			t.Fatalf("campaign %q is a control; policy-compare races IM-RP", c.Name)
		}
	}
	if len(policies) != len(sched.Names()) {
		t.Fatalf("policy-compare covers %d policies, want %d", len(policies), len(sched.Names()))
	}
	// ≥3 policies beyond the two legacy behaviours (acceptance floor).
	extra := 0
	for p := range policies {
		if p != "fifo" && p != "backfill" {
			extra++
		}
	}
	if extra < 3 {
		t.Fatalf("only %d policies beyond fifo/backfill", extra)
	}
}

// TestScenarioPolicyParam: the Policy scenario parameter reaches every
// campaign config of the classic scenarios, and bogus names are caught
// at build time.
func TestScenarioPolicyParam(t *testing.T) {
	cs, err := Build("pair", Params{Seed: 1, Policy: "worstfit"})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cs {
		if c.Config.Policy != "worstfit" {
			t.Fatalf("campaign %q policy = %q", c.Name, c.Config.Policy)
		}
	}
	if _, err := Build("pair", Params{Seed: 1, Policy: "nope"}); err == nil {
		t.Fatal("bogus policy accepted by scenario build")
	}
	// policy-compare races every policy; pinning one is a build error,
	// not a silent no-op.
	if _, err := Build("policy-compare", Params{Seed: 1, Policy: "bestfit"}); err == nil {
		t.Fatal("policy-compare accepted a fixed policy")
	}
	s, ok := Lookup("policy-compare")
	if !ok || s.Report == nil {
		t.Fatal("policy-compare has no scenario report")
	}
}
