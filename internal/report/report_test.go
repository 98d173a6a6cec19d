package report

import (
	"strings"
	"testing"
	"time"

	"impress/internal/core"
	"impress/internal/pipeline"
	"impress/internal/workload"
)

// campaignPair runs one small CONT-V / IM-RP pair for rendering tests.
func campaignPair(t *testing.T) (ctrl, adpt *core.Result) {
	t.Helper()
	var targets []*workload.Target
	for i := 0; i < 3; i++ {
		tg, err := workload.NewTarget(5, "R"+string(rune('A'+i)), 50+2*i, workload.AlphaSynucleinTail4, workload.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		targets = append(targets, tg)
	}
	shrink := func(p pipeline.Params) pipeline.Params {
		p.Cycles = 2
		p.MPNN.NumSequences = 5
		p.MPNN.Sweeps = 2
		return p
	}
	ccfg := core.ControlConfig(5)
	ccfg.Pipeline = shrink(ccfg.Pipeline)
	var err error
	ctrl, err = core.RunControl(targets, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	acfg := core.AdaptiveConfig(5)
	acfg.Pipeline = shrink(acfg.Pipeline)
	adpt, err = core.RunAdaptive(targets, acfg)
	if err != nil {
		t.Fatal(err)
	}
	return ctrl, adpt
}

func TestTableAlignment(t *testing.T) {
	tab := NewTable("A", "BBB", "C")
	tab.AddRow("xx", "y", "zzzz")
	tab.AddRow("1")
	out := tab.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table has %d lines:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "A ") || !strings.Contains(lines[0], "BBB") {
		t.Fatalf("header wrong: %q", lines[0])
	}
	if !strings.Contains(lines[1], "---") {
		t.Fatalf("no separator: %q", lines[1])
	}
}

func TestTableI(t *testing.T) {
	ctrl, adpt := campaignPair(t)
	out := TableI(ctrl, adpt)
	for _, want := range []string{"CONT-V", "IM-RP", "Trajectories", "CPU %", "GPU %", "pTM Net Δ", "N/A", "(–)"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table I missing %q:\n%s", want, out)
		}
	}
	// The IM-RP row must carry a relative-improvement annotation.
	if !strings.Contains(out, "%)") {
		t.Errorf("no relative improvement in Table I:\n%s", out)
	}
}

func TestIterationFigure(t *testing.T) {
	ctrl, adpt := campaignPair(t)
	out := IterationFigure("Fig. 2 test", 2, ctrl, adpt)
	for _, want := range []string{"pLDDT", "pTM", "Interchain pAE", "higher is better", "lower is better", "±", "█"} {
		if !strings.Contains(out, want) {
			t.Errorf("figure missing %q", want)
		}
	}
	// Both approaches appear per iteration.
	if strings.Count(out, "CONT-V") < 3 || strings.Count(out, "IM-RP") < 3 {
		t.Error("figure missing approach rows")
	}
}

func TestUtilizationFigure(t *testing.T) {
	ctrl, _ := campaignPair(t)
	out := UtilizationFigure("Fig. 4 test", ctrl)
	for _, want := range []string{"Busy CPU cores", "Busy GPUs", "Average utilization", "bootstrap", "exec_setup", "running", "makespan"} {
		if !strings.Contains(out, want) {
			t.Errorf("utilization figure missing %q", want)
		}
	}
	// The chart rows must be present (axis line).
	if !strings.Contains(out, "+---") {
		t.Error("no chart axis rendered")
	}
}

func TestIterationCSV(t *testing.T) {
	ctrl, adpt := campaignPair(t)
	var sb strings.Builder
	if err := IterationCSV(&sb, 2, ctrl, adpt); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	// header + 2 approaches × 2 iterations
	if len(lines) != 1+4 {
		t.Fatalf("CSV has %d lines:\n%s", len(lines), sb.String())
	}
	if !strings.HasPrefix(lines[0], "approach,iteration,plddt_median") {
		t.Fatalf("CSV header wrong: %q", lines[0])
	}
	for _, line := range lines[1:] {
		if n := strings.Count(line, ","); n != 8 {
			t.Fatalf("CSV row has %d commas: %q", n, line)
		}
	}
}

func TestSeriesCSV(t *testing.T) {
	ctrl, _ := campaignPair(t)
	var sb strings.Builder
	if err := SeriesCSV(&sb, ctrl); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "cpu") || !strings.Contains(out, "gpu") {
		t.Fatal("series CSV missing resources")
	}
	if !strings.HasPrefix(out, "approach,resource,t_hours,busy\n") {
		t.Fatal("series CSV header wrong")
	}
}

func TestSummary(t *testing.T) {
	ctrl, _ := campaignPair(t)
	s := Summary(ctrl)
	for _, want := range []string{"CONT-V", "trajectories", "CPU", "GPU", "net Δ pLDDT"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q: %s", want, s)
		}
	}
}

func TestDurationLabel(t *testing.T) {
	for _, tc := range []struct {
		d    time.Duration
		want string
	}{
		{0, "off"},
		{15 * time.Minute, "15m"},
		{30 * time.Minute, "30m"},
		{time.Hour, "1h"},
		{90 * time.Minute, "1h30m"},
		{10 * time.Hour, "10h"},
		{20 * time.Second, "20s"},
		{45 * time.Second, "45s"},
	} {
		if got := DurationLabel(tc.d, "off"); got != tc.want {
			t.Errorf("DurationLabel(%v) = %q, want %q", tc.d, got, tc.want)
		}
	}
}
