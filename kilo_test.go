package impress_test

// Kilo-screen determinism layer: the fleet-driven thousand-node scenario
// must be exactly reproducible — same seed, same fleet, same trace —
// with faults, recovery, and steering all active. This is the indexed
// ledger's scale test run as a regression: the segment-tree allocator is
// the only practical way through a 1000-node scheduling pass, and the
// byte-compare proves it changes nothing observable.

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"impress"
)

// renderKiloTrace runs the kilo-screen scenario at a reduced target
// count (the fleet stays at its full ≥1000 nodes) and renders the full
// observable trace: summary, per-task timeline, and the execution-record
// fields the scenario promises to turn on.
func renderKiloTrace(t *testing.T, p impress.ScenarioParams) string {
	t.Helper()
	p.Seed = 42
	campaigns, err := impress.BuildScenario("kilo-screen", p)
	if err != nil {
		t.Fatal(err)
	}
	if len(campaigns) != 1 {
		t.Fatalf("kilo-screen built %d campaigns, want 1", len(campaigns))
	}
	nodes := 0
	for _, ps := range campaigns[0].Config.Pilots {
		nodes += len(ps.Nodes)
	}
	if nodes < 1000 {
		t.Fatalf("kilo-screen fleet has %d nodes, want >= 1000", nodes)
	}
	out := impress.RunCampaigns(campaigns, 1)[0]
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	res := out.Result

	// The scenario's contract: faults, recovery, and steering default on.
	if res.Faults == nil {
		t.Fatal("kilo-screen ran without the fault subsystem")
	}
	if res.SteerLabel() == "none" {
		t.Fatal("kilo-screen ran without steering")
	}
	// Pilots that agree on a recovery policy print its name once.
	recovery := strings.Join(slices.Compact(slices.Clone(res.Recoveries)), "+")
	if recovery == "none" || recovery == "" {
		t.Fatalf("kilo-screen recovery label %q", recovery)
	}

	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s nodes=%d\n", out.Name, nodes)
	fmt.Fprintf(&sb, "%s\n", impress.Summary(res))
	fmt.Fprintf(&sb, "steer=%s transfers=%d recovery=%s policies=%s\n",
		res.SteerLabel(), res.NodeTransfers, recovery, res.PolicyLabel())
	fmt.Fprintf(&sb, "faults: task=%d crash=%d resub=%d terminal=%d killed=%d\n",
		res.Faults.TaskFaults, res.Faults.NodeCrashes, res.Faults.Resubmissions,
		res.Faults.TerminalFailures, res.Faults.KilledPipelines)
	sb.WriteString("-- tasks\n")
	for _, tr := range res.TaskRecords {
		fmt.Fprintf(&sb, "%s %s sub=%d setup=%d run=%d end=%d cores=%d gpus=%d %s\n",
			tr.ID, tr.Name, int64(tr.Submitted), int64(tr.SetupAt), int64(tr.RunAt),
			int64(tr.EndedAt), tr.Cores, tr.GPUs, tr.State)
	}
	return sb.String()
}

// TestKiloScreenDeterministic pins the acceptance criterion directly:
// two full runs of the generated-fleet scenario in one process produce
// byte-identical traces.
func TestKiloScreenDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("two kilo-node campaigns in -short mode")
	}
	p := impress.ScenarioParams{Targets: 6}
	a := renderKiloTrace(t, p)
	// The default fleet's lean CPU rack must actually starve: a run where
	// steering never moved a node would leave the transfer paths of the
	// indexed ledger untested, making this scenario a vacuous regression.
	if strings.Contains(a, "transfers=0 ") {
		t.Fatal("kilo-screen default fleet produced zero node transfers; steering is vacuous")
	}
	b := renderKiloTrace(t, p)
	if a == b {
		return
	}
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			t.Fatalf("kilo-screen trace diverged at line %d:\n run1: %s\n run2: %s", i+1, al[i], bl[i])
		}
	}
	t.Fatalf("kilo-screen trace length changed between runs: %d vs %d lines", len(al), len(bl))
}

// TestKiloScreenCustomFleet: a -fleet override flows through the
// scenario, keeps determinism, and still enforces the kilo-node floor.
func TestKiloScreenCustomFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("kilo-node campaign in -short mode")
	}
	p := impress.ScenarioParams{Targets: 4, Fleet: "cpu:16c0g64m*950+gpu:8c4g32m*60"}
	trace := renderKiloTrace(t, p)
	if !strings.Contains(trace, "kilo1010/seed42") {
		t.Fatalf("custom fleet not reflected in campaign name:\n%s", trace[:120])
	}
	// Too small a fleet is refused at build time.
	_, err := impress.BuildScenario("kilo-screen", impress.ScenarioParams{
		Seed: 42, Targets: 4, Fleet: "cpu:16c0g64m*10+gpu:8c4g32m*2",
	})
	if err == nil || !strings.Contains(err.Error(), "1000") {
		t.Fatalf("12-node fleet accepted for kilo-screen: %v", err)
	}
}
