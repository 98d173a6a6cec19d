package campaign

import (
	"strings"
	"testing"

	"impress/internal/core"
	"impress/internal/report"
)

// TestTenantSweepBuild checks the scenario grid: one service campaign
// per admission policy per seed, each running the full tenant roster on
// one shared pool.
func TestTenantSweepBuild(t *testing.T) {
	cs, err := Build("tenant-sweep", Params{Seed: 5, Seeds: 2, Targets: 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 6 { // 3 admission policies × 2 seeds
		t.Fatalf("got %d campaigns, want 6", len(cs))
	}
	admissions := map[string]bool{}
	for _, c := range cs {
		if c.Tenancy == nil {
			t.Fatalf("%s: not a tenancy campaign", c.Name)
		}
		if len(c.Tenancy.Tenants) != 8 {
			t.Fatalf("%s: %d tenants, want 8", c.Name, len(c.Tenancy.Tenants))
		}
		admissions[c.Tenancy.Config.Admission] = true
	}
	if len(admissions) != 3 {
		t.Fatalf("admission policies raced: %v", admissions)
	}
}

func TestTenantSweepRejectsBadParams(t *testing.T) {
	for name, p := range map[string]Params{
		"split pilots":  {Seed: 1, SplitPilots: true},
		"bad admission": {Seed: 1, Admission: "slurm"},
		"bad reclaim":   {Seed: 1, Reclaim: "greedy"},
		"bad arrival":   {Seed: 1, Arrival: "poisson"},
	} {
		if _, err := Build("tenant-sweep", p); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestTenantSweepAcceptance pins the PR's acceptance criterion at seed
// 42: eight campaigns arriving on one 12-node shared fleet, where
// weighted-fair admission with fairshare reclaim must beat fcfs-admit on
// Jain's fairness index at equal-or-better aggregate makespan. The probe
// values are documented, not asserted exactly — the assertion is the
// ordering, so the test survives unrelated calibration changes while
// still catching a fairness regression.
func TestTenantSweepAcceptance(t *testing.T) {
	cs, err := Build("tenant-sweep", Params{Seed: 42, Seeds: 1, Targets: 8})
	if err != nil {
		t.Fatal(err)
	}
	outs := Run(cs, 3)
	type cell struct {
		jain     float64
		makespan float64
	}
	cells := map[string]cell{}
	for _, o := range outs {
		if o.Err != nil {
			t.Fatalf("%s: %v", o.Name, o.Err)
		}
		if len(o.Result.Tenants) != 8 {
			t.Fatalf("%s: %d tenants reached the pool, want 8", o.Name, len(o.Result.Tenants))
		}
		cells[o.Result.Admission] = cell{report.JainOf(o.Result), o.Result.Makespan.Hours()}
	}
	fcfs, ok := cells["fcfs-admit"]
	if !ok {
		t.Fatal("no fcfs-admit cell")
	}
	wf, ok := cells["weighted-fair"]
	if !ok {
		t.Fatal("no weighted-fair cell")
	}
	// Measured at seed 42: fcfs jain=0.948 makespan=27.97h; weighted-fair
	// jain=0.997 makespan=21.45h (3 reclaims).
	if wf.jain <= fcfs.jain {
		t.Fatalf("weighted-fair Jain %.4f does not beat fcfs-admit %.4f", wf.jain, fcfs.jain)
	}
	if wf.makespan > fcfs.makespan {
		t.Fatalf("weighted-fair makespan %.2fh worse than fcfs-admit %.2fh", wf.makespan, fcfs.makespan)
	}

	// The sweep's own report renders every admission row.
	results := make([]*core.Result, 0, len(outs))
	for _, o := range outs {
		results = append(results, o.Result)
	}
	text := report.Fairness(results)
	for name := range cells {
		if !strings.Contains(text, name) {
			t.Fatalf("fairness report lacks %s:\n%s", name, text)
		}
	}
}

// TestTenantSweepGrowsRecorderWithGrant is the regression for a tenant
// that receives reclaimed nodes: its trace recorder, sized at admission,
// must follow the grant, or the receiver's extra busy cores and GPUs
// trip the recorder's capacity bound. Three targets per tenant is where
// weighted-fair reclaim first moves nodes into running tenants.
func TestTenantSweepGrowsRecorderWithGrant(t *testing.T) {
	cs, err := Build("tenant-sweep", Params{Seed: 42, Seeds: 1, Targets: 24, Admission: "weighted-fair"})
	if err != nil {
		t.Fatal(err)
	}
	outs := Run(cs, 1)
	if len(outs) != 1 {
		t.Fatalf("got %d outcomes, want 1", len(outs))
	}
	o := outs[0]
	if o.Err != nil {
		t.Fatalf("%s: %v", o.Name, o.Err)
	}
	if o.Result.NodeTransfers == 0 {
		t.Fatal("no node moved between tenants; the regression path was not exercised")
	}
	if u := o.Result.CPUUtilization; u <= 0 || u > 1 {
		t.Fatalf("pooled CPU utilization %.3f outside (0,1]", u)
	}
}
