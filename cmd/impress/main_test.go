package main

import (
	"flag"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"impress/internal/clitest"
)

func TestMain(m *testing.M) { clitest.Main(m, main) }

// TestTranscripts pins stdout, stderr and the exit code of representative
// invocations (testdata/cli; regenerate with UPDATE_GOLDEN=1), one
// subtest per mode.
func TestTranscripts(t *testing.T) {
	t.Run("run", func(t *testing.T) {
		clitest.Run(t, []clitest.Case{
			{Name: "run-imrp", Args: []string{"run", "-protocol", "imrp"}},
			{Name: "run-contv-seed7", Args: []string{"run", "-protocol", "contv", "-seed", "7"}},
			{Name: "run-split-steer", Args: []string{"run", "-pilots", "split", "-nodes", "4", "-steer", "greedy"}},
			{Name: "run-fault-retry", Args: []string{"run", "-fault", "0.15", "-recovery", "retry"}},
			{Name: "run-list-scenarios", Args: []string{"run", "-list-scenarios"}},
			{Name: "run-scenario-pair", Args: []string{"run", "-scenario", "pair"}},
			{Name: "run-scenario-pair-seed100", Args: []string{"run", "-scenario", "pair", "-seed", "100", "-seeds", "2", "-parallel", "2"}},
			{Name: "run-scenario-pair-protocol", Args: []string{"run", "-scenario", "pair", "-protocol", "imrp"}},
			{Name: "run-checkpoint-warning", Args: []string{"run", "-checkpoint-interval", "30m"}},
			// Single-campaign mode rejects the flags only scenarios honour.
			{Name: "run-single-tenancy-seeds", Args: []string{"run", "-tenants", "4", "-admit", "quota", "-seeds", "3"}},
			// A node count past fleet.MaxNodes is a usage error, not a
			// makeslice panic in fleet generation.
			{Name: "run-fleet-count-ceiling", Args: []string{"run", "-scenario", "kilo-screen", "-screen-size", "1", "-parallel", "0", "-fleet", "a:28c4g128m*9223372036854775807"}},
			// So is a node shape past fleet.MaxPerNode, which used to overflow
			// the capacity sums into NaN campaign metrics.
			{Name: "run-fleet-shape-ceiling", Args: []string{"run", "-scenario", "kilo-screen", "-screen-size", "1", "-parallel", "0", "-fleet", "a:4611686018427387904c0g1m*500+b:1c4g1m*500"}},
			// A maintenance window past fault.MaxMaintenanceSpan is a usage
			// error, not an event scheduled before now.
			{Name: "run-maintenance-span-ceiling", Args: []string{"run", "-maintenance", "@9223372036854775807ns/1h"}},
			// A negative count is a usage error, not a silent default.
			{Name: "run-negative-cycles", Args: []string{"run", "-cycles", "-1"}},
			{Name: "run-negative-parallel", Args: []string{"run", "-parallel", "-3", "-scenario", "pair"}},
			// So is a machine past fleet.MaxNodes, and a screen of no targets.
			{Name: "run-nodes-ceiling", Args: []string{"run", "-pilots", "split", "-nodes", "100000000"}},
			{Name: "run-screen-size-zero", Args: []string{"run", "-targets", "screen", "-screen-size", "0"}},
			// A positional argument is refused wherever it stands, not ignored
			// along with every flag after it.
			{Name: "run-positional-last", Args: []string{"run", "-cycles", "1", "table1"}},
			{Name: "run-positional-first", Args: []string{"run", "table1", "-cycles", "1"}},
		})
	})
	t.Run("sweep", func(t *testing.T) {
		clitest.Run(t, []clitest.Case{
			{Name: "sweep-seeds2", Args: []string{"sweep", "-seed", "100", "-seeds", "2"}},
			{Name: "sweep-seeds2-split-steer", Args: []string{"sweep", "-seed", "100", "-seeds", "2", "-pilots", "split", "-nodes", "4", "-steer", "hysteresis"}},
			// The pair sweep rejects the flags only scenarios honour.
			{Name: "sweep-tenants", Args: []string{"sweep", "-tenants", "4"}},
			{Name: "sweep-fleet", Args: []string{"sweep", "-fleet", "cpu:8c0g32m*2+gpu:8c4g32m*1"}},
			{Name: "sweep-negative-seeds", Args: []string{"sweep", "-seeds", "-2"}},
			{Name: "sweep-positional", Args: []string{"sweep", "-seeds", "1", "fig2"}},
		})
	})
	t.Run("experiments", func(t *testing.T) {
		clitest.Run(t, []clitest.Case{
			{Name: "experiments-all-screen8", Args: []string{"experiments", "-screen-size", "8"}},
			{Name: "experiments-table1-bestfit", Args: []string{"experiments", "-policy", "bestfit", "table1"}},
			{Name: "experiments-fig2-fault-retry", Args: []string{"experiments", "-fault", "0.1", "-recovery", "retry", "fig2"}},
			{Name: "experiments-table1-steer", Args: []string{"experiments", "-steer", "greedy", "table1"}},
			// Paper mode rejects every explicitly set flag it does not
			// honour, including an explicit default and each tenancy flag.
			{Name: "experiments-table1-admit", Args: []string{"experiments", "-admit", "quota", "table1"}},
			{Name: "experiments-table1-steer-none", Args: []string{"experiments", "-steer", "none", "table1"}},
			{Name: "experiments-table1-tenancy", Args: []string{"experiments", "-tenants", "3", "-arrival", "linear", "-arrival-span", "1h", "-admit", "quota", "-reclaim", "none", "table1"}},
			{Name: "experiments-table1-preempt", Args: []string{"experiments", "-checkpoint-interval", "30m", "-fleet", "cpu:8c0g32m*2+gpu:8c4g32m*1", "-chrome-trace", "x.json", "table1"}},
			{Name: "experiments-negative-screen", Args: []string{"experiments", "-screen-size", "-5"}},
		})
	})

	// Without a known mode the binary lists the modes.
	clitest.Run(t, []clitest.Case{
		{Name: "no-mode", Args: nil},
		{Name: "unknown-mode", Args: []string{"-seed", "7"}},
	})
}

// TestNegativeCountsAreUsageErrors: a count below its default marker, or
// past its ceiling, exits 2 with a message naming the flag before
// anything runs; so does a positional argument to run or sweep. The
// rows run in one subtest per mode, named by their first argument.
func TestNegativeCountsAreUsageErrors(t *testing.T) {
	usage := [][]string{
		{"run", "-cycles", "-1"},
		{"run", "-sequences", "-1"},
		{"run", "-max-concurrent", "-2"},
		{"run", "-gantt", "-4"},
		{"run", "-retries", "-2"},
		{"run", "-screen-size", "-5"},
		{"run", "-scenario", "screen", "-screen-size", "-5"},
		{"run", "-scenario", "sweep", "-seeds", "-1"},
		{"run", "-scenario", "screen", "-seeds", "-1"},
		{"run", "-scenario", "fig3", "-screen-size", "-1"},
		{"sweep", "-seeds", "-2"},
		{"experiments", "-screen-size", "-5"},
		{"run", "-parallel", "-3"},
		{"run", "-scenario", "pair", "-parallel", "-3"},
		{"sweep", "-parallel", "-1"},
		{"experiments", "-parallel", "-2"},
		{"run", "-pilots", "split", "-nodes", "100000000"},
		{"sweep", "-nodes", "1048577"},
		{"run", "-targets", "screen", "-screen-size", "0"},
	}
	positional := [][]string{
		{"run", "-cycles", "1", "table1"},
		{"run", "table1", "-cycles", "1"},
		{"sweep", "-seeds", "1", "fig2"},
	}
	for _, mode := range []string{"run", "sweep", "experiments"} {
		t.Run(mode, func(t *testing.T) {
			for _, args := range usage {
				if args[0] == mode {
					clitest.UsageError(t, args...)
				}
			}
			for _, args := range positional {
				if args[0] != mode {
					continue
				}
				code, stdout, stderr := clitest.Exec(t, args...)
				if code != 2 || stdout != "" || !strings.HasPrefix(stderr, "unexpected argument ") {
					t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 2 and an unexpected-argument error", args, code, stdout, stderr)
				}
			}
		})
	}
}

// TestModeRules pins which flags each mode honours: every registered
// flag must be in the table, and each mode's rule must agree with it.
func TestModeRules(t *testing.T) {
	const all = "run pair table1 sweep experiments"
	const execution = "run pair table1 sweep"
	honoured := map[string]string{
		"seed": all, "parallel": all, "policy": all, "recovery": all,
		"fault": all, "mtbf": all, "repair": all, "outage-mtbf": all,
		"outage-dur": all, "cascade": all, "cascade-window": all, "maintenance": all,
		"cpuprofile": all, "memprofile": all,

		"pilots": execution, "nodes": execution, "steer": execution,
		"checkpoint-interval": execution, "chrome-trace": execution,

		"fleet":   "run pair table1",
		"tenants": "pair table1", "arrival": "pair table1", "arrival-span": "pair table1",
		"admit": "pair table1", "reclaim": "pair table1",

		"scenario": "run pair table1", "list-scenarios": "run pair table1",
		"screen-size": "run pair table1 experiments",
		"seeds":       "pair table1 sweep",
		"csv":         "run table1 sweep", // pair declares no CSV report
		"out":         "experiments",

		"protocol": "run", "targets": "run", "cycles": "run", "sequences": "run",
		"retries": "run", "max-concurrent": "run", "no-subs": "run",
		"no-final-adaptive": "run", "json": "run", "pdb-dir": "run",
		"events": "run", "gantt": "run", "v": "run",
	}
	for _, c := range []struct {
		label, mode string
		args        []string
	}{
		{"run", "run", nil},
		{"pair", "run", []string{"-scenario", "pair"}},
		{"table1", "run", []string{"-scenario", "table1"}},
		{"sweep", "sweep", nil},
		{"experiments", "experiments", nil},
	} {
		fs := flag.NewFlagSet(c.mode, flag.ContinueOnError)
		f := newFlags(fs)
		if err := fs.Parse(c.args); err != nil {
			t.Fatal(err)
		}
		_, honours := lookupMode(c.mode).rule(f)
		registered := 0
		fs.VisitAll(func(fl *flag.Flag) {
			registered++
			modes, ok := honoured[fl.Name]
			if !ok {
				t.Errorf("flag -%s is missing from the table", fl.Name)
				return
			}
			if got, want := honours(fl.Name), slices.Contains(strings.Fields(modes), c.label); got != want {
				t.Errorf("%s: honours(-%s) = %v, want %v", c.label, fl.Name, got, want)
			}
		})
		if registered != len(honoured) {
			t.Errorf("%d flags registered, %d in the table", registered, len(honoured))
		}
	}
}

// TestOutWritesReportFiles pins -out: every selected experiment writes
// <id>.txt, equal to its stdout section below the "###" header, and
// <id>.csv, whose header names the experiment's CSV kind.
func TestOutWritesReportFiles(t *testing.T) {
	dir := t.TempDir()
	code, stdout, stderr := clitest.Exec(t, "experiments", "-out", dir, "table1", "fig4")
	if code != 0 {
		t.Fatalf("exit %d\nstderr: %s", code, stderr)
	}

	// A section is every line from one "### <id> — <title>" header to the
	// next: a blank line, the experiment's text, and Println's newline.
	sections := map[string]string{}
	id := ""
	for _, line := range strings.SplitAfter(stdout, "\n") {
		if rest, ok := strings.CutPrefix(line, "### "); ok {
			id, _, _ = strings.Cut(rest, " ")
			continue
		}
		sections[id] += line
	}
	for id, csvHeader := range map[string]string{"table1": "approach,iteration", "fig4": "approach,resource"} {
		body, ok := sections[id]
		if !ok {
			t.Fatalf("no ### %s section in stdout:\n%s", id, stdout)
		}
		txt, err := os.ReadFile(filepath.Join(dir, id+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		if "\n"+string(txt)+"\n" != body {
			t.Errorf("%s.txt differs from its stdout section\n--- file\n%s\n--- stdout\n%s", id, txt, body)
		}
		csv, err := os.ReadFile(filepath.Join(dir, id+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(string(csv), csvHeader+",") {
			t.Errorf("%s.csv header %q, want prefix %q", id, strings.SplitN(string(csv), "\n", 2)[0], csvHeader)
		}
	}
	if len(sections) != 2 {
		t.Errorf("stdout has %d sections, want 2", len(sections))
	}
}
