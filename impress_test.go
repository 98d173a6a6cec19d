package impress_test

import (
	"io"
	"strings"
	"testing"

	"impress"
	"impress/internal/campaign"
	"impress/internal/report"
	"impress/internal/sched"
)

// paperRun is one completed run of a paper scenario: its results keyed
// by approach, and its report renderers over them.
type paperRun struct {
	impress.Scenario
	Results map[string]*impress.Result
	results []*impress.Result
}

// Text renders the scenario's report.
func (r paperRun) Text() string { return r.Report(r.results) }

// WriteCSV writes the scenario's CSV report.
func (r paperRun) WriteCSV(w io.Writer) error { return r.ReportCSV(w, r.results) }

// runPaper builds a paper scenario and runs its campaigns, failing the
// test on any error.
func runPaper(tb testing.TB, name string, p impress.ScenarioParams) paperRun {
	tb.Helper()
	sc, ok := campaign.Lookup(name)
	if !ok {
		tb.Fatalf("scenario %q not registered", name)
	}
	campaigns, err := impress.BuildScenario(name, p)
	if err != nil {
		tb.Fatal(err)
	}
	run := paperRun{Scenario: sc, Results: map[string]*impress.Result{}}
	for _, o := range impress.RunCampaigns(campaigns, 2) {
		if o.Err != nil {
			tb.Fatal(o.Err)
		}
		run.results = append(run.results, o.Result)
		run.Results[o.Result.Approach] = o.Result
	}
	return run
}

func TestPublicAPITargets(t *testing.T) {
	targets, err := impress.NamedPDZTargets(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(targets) != 4 {
		t.Fatalf("NamedPDZTargets returned %d targets", len(targets))
	}
	screen, err := impress.PDZScreen(1, 5)
	if err != nil || len(screen) != 5 {
		t.Fatalf("PDZScreen: %v, %d targets", err, len(screen))
	}
	custom, err := impress.NewTarget(1, "X", 60, impress.AlphaSynucleinTail4)
	if err != nil || custom.Name != "X" {
		t.Fatalf("NewTarget: %v", err)
	}
	prot, triad, err := impress.ProteaseTarget(1, "P", 100)
	if err != nil || len(triad) != 3 || prot.Structure.IsComplex() {
		t.Fatalf("ProteaseTarget: %v triad %v", err, triad)
	}
}

func TestPublicAPICampaign(t *testing.T) {
	target, err := impress.NewTarget(3, "MINI", 52, impress.AlphaSynucleinTail4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := impress.AdaptiveConfig(3)
	cfg.Pipeline.Cycles = 2
	cfg.Pipeline.MPNN.NumSequences = 5
	cfg.Pipeline.MPNN.Sweeps = 2
	res, err := impress.RunAdaptive([]*impress.Target{target}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Approach != "IM-RP" {
		t.Fatalf("Approach = %q", res.Approach)
	}
	if res.TrajectoryCount() == 0 {
		t.Fatal("no trajectories")
	}
	s := impress.Summary(res)
	if !strings.Contains(s, "IM-RP") {
		t.Fatalf("Summary = %q", s)
	}
	if res.FinalMedian(impress.PLDDT) <= 0 || res.FinalMedian(impress.PTM) <= 0 {
		t.Fatal("final medians empty")
	}
}

func TestSchedulingPolicyAPI(t *testing.T) {
	pols := sched.Names()
	if len(pols) < 5 {
		t.Fatalf("sched.Names() = %v, want at least 5", pols)
	}
	for _, p := range pols {
		if err := sched.Validate(p); err != nil {
			t.Errorf("policy %q invalid: %v", p, err)
		}
	}
	if err := sched.Validate("bogus"); err == nil {
		t.Error("bogus policy validated")
	}

	// A campaign pinned to a non-default policy runs end to end and
	// reports its resolved policy.
	target, err := impress.NewTarget(3, "MINI", 52, impress.AlphaSynucleinTail4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := impress.AdaptiveConfig(3)
	cfg.Policy = "bestfit"
	cfg.Pipeline.Cycles = 2
	cfg.Pipeline.MPNN.NumSequences = 5
	cfg.Pipeline.MPNN.Sweeps = 2
	res, err := impress.RunAdaptive([]*impress.Target{target}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.PolicyLabel(); got != "bestfit" {
		t.Fatalf("PolicyLabel = %q, want bestfit", got)
	}
	text := report.PolicyCompare([]*impress.Result{res})
	if !strings.Contains(text, "bestfit") {
		t.Fatalf("PolicyCompare output missing policy:\n%s", text)
	}
}

func TestExperimentRegistry(t *testing.T) {
	for _, id := range []string{"table1", "fig2", "fig3", "fig4", "fig5"} {
		sc, ok := campaign.Lookup(id)
		if !ok {
			t.Errorf("paper scenario %q not registered", id)
			continue
		}
		if sc.Build == nil || sc.Report == nil || sc.ReportCSV == nil || sc.Description == "" {
			t.Errorf("paper scenario %q incomplete", id)
		}
	}
}

func TestTableIExperimentShape(t *testing.T) {
	out := runPaper(t, "table1", impress.ScenarioParams{Seed: 42})
	if !strings.Contains(out.Text(), "CONT-V") || !strings.Contains(out.Text(), "IM-RP") {
		t.Fatal("Table I missing approaches")
	}
	ctrl := out.Results["CONT-V"]
	adpt := out.Results["IM-RP"]
	if ctrl == nil || adpt == nil {
		t.Fatal("Table I missing results")
	}

	// The paper's Table I orderings, which the reproduction must hold:
	// CONT-V examines exactly 16 trajectories (4 structures × 4 cycles).
	if ctrl.TrajectoryCount() != 16 {
		t.Errorf("CONT-V trajectories = %d, want 16", ctrl.TrajectoryCount())
	}
	// IM-RP examines more trajectories through sub-pipelines.
	if adpt.TrajectoryCount() <= ctrl.TrajectoryCount() {
		t.Errorf("IM-RP trajectories %d not above CONT-V %d", adpt.TrajectoryCount(), ctrl.TrajectoryCount())
	}
	if adpt.SubPipelines < 3 {
		t.Errorf("IM-RP sub-pipelines = %d, want several", adpt.SubPipelines)
	}
	// Higher resource utilization...
	if adpt.CPUUtilization <= ctrl.CPUUtilization || adpt.GPUUtilization <= ctrl.GPUUtilization {
		t.Error("IM-RP utilization not above CONT-V")
	}
	// ...at the cost of more aggregate task time.
	if adpt.AggregateTaskTime <= ctrl.AggregateTaskTime {
		t.Error("IM-RP aggregate task time not above CONT-V")
	}
	// Better quality on the higher-is-better metrics.
	if adpt.NetDelta(impress.PLDDT) <= ctrl.NetDelta(impress.PLDDT) {
		t.Error("IM-RP pLDDT net delta not above CONT-V")
	}
	if adpt.NetDelta(impress.PTM) <= ctrl.NetDelta(impress.PTM) {
		t.Error("IM-RP pTM net delta not above CONT-V")
	}
	// CSV renders.
	var sb strings.Builder
	if err := out.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "approach,iteration") {
		t.Fatal("CSV missing header")
	}
}

func TestFig3ExperimentDrop(t *testing.T) {
	if testing.Short() {
		t.Skip("full screen in -short mode")
	}
	out := runPaper(t, "fig3", impress.ScenarioParams{Seed: 44, Targets: 40})
	res := out.Results["IM-RP"]
	it3, _ := res.IterationSummary(3, impress.PLDDT)
	it4, _ := res.IterationSummary(4, impress.PLDDT)
	if !(it4 < it3) {
		t.Fatalf("no final-iteration deterioration: it3 %.2f it4 %.2f", it3, it4)
	}
	it1, _ := res.IterationSummary(1, impress.PLDDT)
	it2, _ := res.IterationSummary(2, impress.PLDDT)
	if !(it1 < it2 && it2 < it3) {
		t.Fatalf("iterations 1-3 not improving: %.2f %.2f %.2f", it1, it2, it3)
	}
	if !strings.Contains(out.Text(), "adaptivity disabled in the final cycle") {
		t.Error("Fig. 3 text missing configuration note")
	}
}

func TestFig4AndFig5Experiments(t *testing.T) {
	f4 := runPaper(t, "fig4", impress.ScenarioParams{Seed: 42})
	f5 := runPaper(t, "fig5", impress.ScenarioParams{Seed: 42})
	ctrl := f4.Results["CONT-V"]
	adpt := f5.Results["IM-RP"]
	// The paper's headline utilization contrast.
	if adpt.CPUUtilization < 2*ctrl.CPUUtilization {
		t.Errorf("CPU utilization contrast too weak: %.2f vs %.2f", adpt.CPUUtilization, ctrl.CPUUtilization)
	}
	if adpt.GPUUtilization < 2*ctrl.GPUUtilization {
		t.Errorf("GPU utilization contrast too weak: %.2f vs %.2f", adpt.GPUUtilization, ctrl.GPUUtilization)
	}
	for _, out := range []paperRun{f4, f5} {
		if !strings.Contains(out.Text(), "Busy CPU cores") || !strings.Contains(out.Text(), "Runtime phases") {
			t.Errorf("%s output incomplete", out.Name)
		}
		var sb strings.Builder
		if err := out.WriteCSV(&sb); err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(sb.String(), "approach,resource") {
			t.Errorf("%s CSV wrong", out.Name)
		}
	}
}

func TestFig2ExperimentShape(t *testing.T) {
	out := runPaper(t, "fig2", impress.ScenarioParams{Seed: 42})
	ctrl := out.Results["CONT-V"]
	adpt := out.Results["IM-RP"]
	// Fig. 2's claim: IM-RP attains better medians than CONT-V in the
	// later iterations for the headline metric, with tighter spread at
	// the end.
	better := 0
	for it := 2; it <= 4; it++ {
		am, _ := adpt.IterationSummary(it, impress.PLDDT)
		cm, _ := ctrl.IterationSummary(it, impress.PLDDT)
		if am > cm {
			better++
		}
	}
	if better < 2 {
		t.Errorf("IM-RP better in only %d/3 later iterations", better)
	}
	_, aStd := adpt.IterationSummary(4, impress.PLDDT)
	_, cStd := ctrl.IterationSummary(4, impress.PLDDT)
	if aStd >= cStd {
		t.Errorf("IM-RP final spread %v not tighter than CONT-V %v", aStd, cStd)
	}
}
