package main

// Satellite regression tests: a -csv request must never be silently
// ignored. When the scenario has no CSV report, or every campaign
// failed, the command says so on stderr instead of exiting as if the
// artifact had been produced.

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"impress/internal/campaign"
	"impress/internal/core"
	"impress/internal/workload"
)

// lookup returns the registered scenarios list names.
func lookup(t *testing.T, list string) []campaign.Scenario {
	t.Helper()
	scs, err := lookupScenarios(list)
	if err != nil {
		t.Fatal(err)
	}
	return scs
}

// scenarioRun returns the flags of a run of the scenarios list names,
// parsed from args but not checked, so that a test can also run what
// the command line refuses.
func scenarioRun(t *testing.T, list string, args ...string) *flags {
	t.Helper()
	f := parse(t, args...)
	f.scenarios = lookup(t, list)
	return f
}

// runOf returns the flags of a run of sc, parsed from args, with sc
// handed to the runner directly rather than through the process-wide
// registry, so that the test can run again in the same process.
func runOf(t *testing.T, sc campaign.Scenario, args ...string) *flags {
	t.Helper()
	f := parse(t, args...)
	f.scenarios = []campaign.Scenario{sc}
	return f
}

// miniCampaign is a small adaptive campaign that completes in well under
// a second.
func miniCampaign(t *testing.T, name string) campaign.Campaign {
	t.Helper()
	target, err := workload.NewTarget(9, "SRUN", 50, workload.AlphaSynucleinTail4, workload.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.AdaptiveConfig(9)
	cfg.Pipeline.Cycles = 1
	cfg.Pipeline.MPNN.NumSequences = 4
	cfg.Pipeline.MPNN.Sweeps = 2
	return campaign.Campaign{Name: name, Seed: 9, Targets: []*workload.Target{target}, Config: cfg}
}

func TestRunWarnsWhenScenarioHasNoCSVReport(t *testing.T) {
	sc := campaign.Scenario{
		Name:  "srun-nocsv",
		Build: func(campaign.Params) ([]campaign.Campaign, error) { return nil, nil },
	}
	csv := filepath.Join(t.TempDir(), "out.csv")
	var stdout, stderr strings.Builder
	code := runOf(t, sc, "-parallel", "1", "-csv", csv).runScenarios(&stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "declares no CSV report") {
		t.Fatalf("no warning for a requested-but-undeclared CSV; stderr: %q", stderr.String())
	}
	if _, err := os.Stat(csv); err == nil {
		t.Fatal("CSV written despite the scenario declaring none")
	}
}

func TestRunWarnsWhenEveryCampaignFailed(t *testing.T) {
	sc := campaign.Scenario{
		Name: "srun-allfail",
		Build: func(campaign.Params) ([]campaign.Campaign, error) {
			// No targets: the coordinator rejects the campaign at
			// construction, so every cell of the scenario fails.
			return []campaign.Campaign{{Name: "doomed", Config: core.AdaptiveConfig(1)}}, nil
		},
		ReportCSV: func(w io.Writer, _ []*core.Result) error {
			_, err := io.WriteString(w, "never\n")
			return err
		},
	}
	csv := filepath.Join(t.TempDir(), "out.csv")
	var stdout, stderr strings.Builder
	code := runOf(t, sc, "-parallel", "1", "-csv", csv).runScenarios(&stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit %d, want 1 (a campaign failed)", code)
	}
	if !strings.Contains(stderr.String(), "not written") {
		t.Fatalf("no warning for the missing CSV; stderr: %q", stderr.String())
	}
	if _, err := os.Stat(csv); err == nil {
		t.Fatal("CSV written despite zero completed campaigns")
	}
}

func TestRunWritesDeclaredCSV(t *testing.T) {
	sc := campaign.Scenario{
		Name: "srun-ok",
		Build: func(campaign.Params) ([]campaign.Campaign, error) {
			return []campaign.Campaign{miniCampaign(t, "srun-ok/mini")}, nil
		},
		ReportCSV: func(w io.Writer, results []*core.Result) error {
			_, err := io.WriteString(w, "rows\n")
			return err
		},
	}
	csv := filepath.Join(t.TempDir(), "out.csv")
	var stdout, stderr strings.Builder
	code := runOf(t, sc, "-parallel", "1", "-csv", csv).runScenarios(&stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	data, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "rows\n" {
		t.Fatalf("CSV content %q", data)
	}
	if !strings.Contains(stdout.String(), "wrote "+csv) {
		t.Fatalf("no wrote line; stdout: %q", stdout.String())
	}
}

// TestRunFailsOnUnwritableCSV: the loss-proof write path turns an
// unwritable destination into a non-zero exit with a message.
func TestRunFailsOnUnwritableCSV(t *testing.T) {
	sc := campaign.Scenario{
		Name: "srun-unwritable",
		Build: func(campaign.Params) ([]campaign.Campaign, error) {
			return []campaign.Campaign{miniCampaign(t, "srun-unwritable/mini")}, nil
		},
		ReportCSV: func(w io.Writer, _ []*core.Result) error {
			_, err := io.WriteString(w, "rows\n")
			return err
		},
	}
	csv := filepath.Join(t.TempDir(), "missing-dir", "out.csv")
	var stdout, stderr strings.Builder
	code := runOf(t, sc, "-parallel", "1", "-csv", csv).runScenarios(&stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit %d, want 1 for an unwritable CSV", code)
	}
	if stderr.Len() == 0 {
		t.Fatal("no error message for the unwritable CSV")
	}
}

// TestListPrintsEachScenarioBlock: a list runs as one batch, and prints
// for each scenario, in list order, the block a run of it alone prints.
func TestListPrintsEachScenarioBlock(t *testing.T) {
	run := func(list string) string {
		var stdout, stderr strings.Builder
		if code := scenarioRun(t, list, "-seed", "5", "-parallel", "2").runScenarios(&stdout, &stderr); code != 0 {
			t.Fatalf("%s: exit %d, stderr: %s", list, code, stderr.String())
		}
		return stdout.String()
	}
	if got, want := run("fig5,fig4"), run("fig5")+run("fig4"); got != want {
		t.Errorf("fig5,fig4 prints\n%s\nwant the fig5 and fig4 blocks\n%s", got, want)
	}
}

// TestListTraceNamesProcessesApart: table1 and fig4 both run a
// contv/seed42 campaign, so a list's Chrome trace prefixes each process
// name with its scenario, and no two processes share a name.
func TestListTraceNamesProcessesApart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	var stdout, stderr strings.Builder
	if code := scenarioRun(t, "table1,fig4", "-parallel", "2", "-chrome-trace", path).runScenarios(&stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string
			Pid  int
			Args struct{ Name string }
		}
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	pidOf := make(map[string]int)
	for _, e := range doc.TraceEvents {
		if e.Name != "process_name" {
			continue
		}
		if pid, ok := pidOf[e.Args.Name]; ok {
			t.Errorf("process name %q on pids %d and %d", e.Args.Name, pid, e.Pid)
		}
		pidOf[e.Args.Name] = e.Pid
		if !strings.HasPrefix(e.Args.Name, "table1/") && !strings.HasPrefix(e.Args.Name, "fig4/") {
			t.Errorf("process name %q lacks its scenario prefix", e.Args.Name)
		}
	}
	if len(pidOf) == 0 {
		t.Fatal("trace names no process")
	}
}

func TestLookupRejectsUnknownAndRepeatedNames(t *testing.T) {
	for list, want := range map[string]string{
		"table1,nope":    `unknown scenario "nope"`,
		"table1,":        `unknown scenario ""`,
		"fig4,fig4":      `scenario "fig4" named twice`,
		"fig2,fig3,fig2": `scenario "fig2" named twice`,
	} {
		if _, err := lookupScenarios(list); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("lookupScenarios(%q) = %v, want an error containing %q", list, err, want)
		}
	}
}
