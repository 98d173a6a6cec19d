package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestTranscripts pins stdout, stderr and the exit code of representative
// invocations (testdata/cli; regenerate with UPDATE_GOLDEN=1): single
// campaigns and scenarios, the pair sweep, and the paper's figures.
func TestTranscripts(t *testing.T) {
	t.Run("run", func(t *testing.T) {
		checkTranscripts(t, []cliCase{
			{Name: "run-imrp", Args: []string{"run", "-protocol", "imrp"}},
			{Name: "run-contv-seed7", Args: []string{"run", "-protocol", "contv", "-seed", "7"}},
			{Name: "run-split-steer", Args: []string{"run", "-pilots", "split", "-nodes", "4", "-steer", "greedy"}},
			{Name: "run-fault-retry", Args: []string{"run", "-fault", "0.15", "-recovery", "retry"}},
			{Name: "run-events", Args: []string{"run", "-fault", "0.3", "-recovery", "retry", "-events"}},
			{Name: "run-list-scenarios", Args: []string{"run", "-list-scenarios"}},
			// The help text pins every flag's name, default and usage line.
			{Name: "run-help", Args: []string{"run", "-h"}},
			{Name: "run-scenario-pair", Args: []string{"run", "-scenario", "pair"}},
			{Name: "run-scenario-pair-seed100", Args: []string{"run", "-scenario", "pair", "-seed", "100", "-parallel", "2"}},
			{Name: "run-scenario-pair-protocol", Args: []string{"run", "-scenario", "pair", "-protocol", "imrp"}},
			// A scenario rejects the workload flags it does not declare it
			// reads, all of them by name.
			{Name: "run-scenario-pair-workload", Args: []string{"run", "-scenario", "pair", "-tenants", "4", "-admit", "quota", "-fleet", "cpu:8c0g32m*2+gpu:8c4g32m*1", "-seeds", "3"}},
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
	// The CONT-V vs IM-RP pair across seeds: the sweep scenario.
	t.Run("sweep", func(t *testing.T) {
		checkTranscripts(t, []cliCase{
			{Name: "sweep-seeds2", Args: []string{"run", "-scenario", "sweep", "-seed", "100", "-seeds", "2"}},
			{Name: "sweep-seeds2-split-steer", Args: []string{"run", "-scenario", "sweep", "-seed", "100", "-seeds", "2", "-pilots", "split", "-nodes", "4", "-steer", "hysteresis"}},
			// The pair sweep runs on each protocol's own machine, so it
			// declares neither the fleet nor the tenant stream.
			{Name: "sweep-tenants", Args: []string{"run", "-scenario", "sweep", "-tenants", "4"}},
			{Name: "sweep-fleet", Args: []string{"run", "-scenario", "sweep", "-fleet", "cpu:8c0g32m*2+gpu:8c4g32m*1"}},
			{Name: "sweep-negative-seeds", Args: []string{"run", "-scenario", "sweep", "-seeds", "-2"}},
			{Name: "sweep-positional", Args: []string{"run", "-scenario", "sweep", "-seeds", "1", "fig2"}},
		})
	})
	// The paper's evaluation: Table I and Figs. 2-5.
	t.Run("experiments", func(t *testing.T) {
		checkTranscripts(t, []cliCase{
			{Name: "experiments-all-screen8", Args: []string{"run", "-scenario", "table1,fig2,fig3,fig4,fig5", "-screen-size", "8"}},
			{Name: "experiments-table1-bestfit", Args: []string{"run", "-scenario", "table1", "-policy", "bestfit"}},
			{Name: "experiments-fig2-fault-retry", Args: []string{"run", "-scenario", "fig2", "-fault", "0.1", "-recovery", "retry"}},
			// Steering needs the split placement; with it the paper
			// scenarios take the knob like every other scenario.
			{Name: "experiments-table1-steer", Args: []string{"run", "-scenario", "table1", "-steer", "greedy"}},
			{Name: "experiments-table1-steer-none", Args: []string{"run", "-scenario", "table1", "-steer", "none"}},
			// The paper scenarios read neither the tenant stream nor the
			// fleet, so each of those flags is rejected by name.
			{Name: "experiments-table1-admit", Args: []string{"run", "-scenario", "table1", "-admit", "quota"}},
			{Name: "experiments-table1-tenancy", Args: []string{"run", "-scenario", "table1", "-tenants", "3", "-arrival", "linear", "-arrival-span", "1h", "-admit", "quota", "-reclaim", "none"}},
			{Name: "experiments-table1-preempt", Args: []string{"run", "-scenario", "table1,fig4", "-checkpoint-interval", "30m", "-fleet", "cpu:8c0g32m*2+gpu:8c4g32m*1", "-chrome-trace", "x.json"}},
			{Name: "experiments-negative-screen", Args: []string{"run", "-scenario", "table1,fig3", "-screen-size", "-5"}},
		})
	})

	// Without the run mode the binary prints its usage.
	checkTranscripts(t, []cliCase{
		{Name: "no-mode", Args: nil},
		{Name: "unknown-mode", Args: []string{"-seed", "7"}},
	})
}

// TestNegativeCountsAreUsageErrors: a count below its default marker, or
// past its ceiling, exits 2 with a message naming the flag before
// anything runs; so does a positional argument. The rows run in one
// subtest per kind of run: single campaigns and scenarios, the pair
// sweep, and the paper's figures.
func TestNegativeCountsAreUsageErrors(t *testing.T) {
	usage := map[string][][]string{
		"run": {
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
			{"run", "-parallel", "-3"},
			{"run", "-scenario", "pair", "-parallel", "-3"},
			{"run", "-pilots", "split", "-nodes", "100000000"},
			{"run", "-targets", "screen", "-screen-size", "0"},
		},
		"sweep": {
			{"run", "-scenario", "sweep", "-seeds", "-2"},
			{"run", "-scenario", "sweep", "-parallel", "-1"},
			{"run", "-scenario", "sweep", "-nodes", "1048577"},
		},
		"experiments": {
			{"run", "-scenario", "table1,fig2,fig3,fig4,fig5", "-screen-size", "-5"},
			{"run", "-scenario", "table1,fig2,fig3,fig4,fig5", "-parallel", "-2"},
		},
	}
	positional := map[string][][]string{
		"run": {
			{"run", "-cycles", "1", "table1"},
			{"run", "table1", "-cycles", "1"},
		},
		"sweep": {{"run", "-scenario", "sweep", "-seeds", "1", "fig2"}},
	}
	for _, kind := range []string{"run", "sweep", "experiments"} {
		t.Run(kind, func(t *testing.T) {
			for _, args := range usage[kind] {
				usageError(t, args...)
			}
			for _, args := range positional[kind] {
				code, stdout, stderr := execCLI(t, args...)
				if code != 2 || stdout != "" || !strings.HasPrefix(stderr, "unexpected argument ") {
					t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 2 and an unexpected-argument error", args, code, stdout, stderr)
				}
			}
		})
	}
}

// TestNonFiniteProbabilitiesAreUsageErrors: -fault and -cascade, the
// two float flags, reject NaN and ±Inf (instead of running fault-free)
// and values outside [0, 1) with exit 2 and an error naming the flag,
// for single campaigns, the pair sweep and the paper's figures.
func TestNonFiniteProbabilitiesAreUsageErrors(t *testing.T) {
	for kind, prefix := range map[string][]string{
		"run":         {"run"},
		"sweep":       {"run", "-scenario", "sweep"},
		"experiments": {"run", "-scenario", "table1,fig2,fig3,fig4,fig5"},
	} {
		t.Run(kind, func(t *testing.T) {
			for _, v := range []string{"NaN", "+Inf", "-Inf", "1.5", "-0.1"} {
				usageError(t, append(slices.Clone(prefix), "-fault", v)...)
				usageError(t, append(slices.Clone(prefix), "-mtbf", "12h", "-cascade", v)...)
			}
		})
	}
}

// TestModeRules pins which flags each kind of run honours: every
// registered flag must be in the table, and the rule of each run must
// agree with it.
func TestModeRules(t *testing.T) {
	const all = "run pair table1 sweep tenant-sweep paper"
	honoured := map[string]string{
		"seed": all, "parallel": all, "policy": all, "recovery": all,
		"fault": all, "mtbf": all, "repair": all, "outage-mtbf": all,
		"outage-dur": all, "cascade": all, "cascade-window": all, "maintenance": all,
		"cpuprofile": all, "memprofile": all,
		"pilots": all, "nodes": all, "steer": all,
		"checkpoint-interval": all, "chrome-trace": all,
		"scenario": all, "list-scenarios": all,

		// The workload flags: each scenario declares the ones it reads.
		"fleet":   "run tenant-sweep",
		"tenants": "tenant-sweep", "arrival": "tenant-sweep", "arrival-span": "tenant-sweep",
		"admit": "tenant-sweep", "reclaim": "tenant-sweep",
		"screen-size": "run tenant-sweep paper", // fig3 reads the screen width
		"seeds":       "sweep tenant-sweep",

		// pair declares no report; -csv names one file.
		"csv": "run table1 sweep tenant-sweep",
		"out": "table1 sweep tenant-sweep paper",

		"protocol": "run", "targets": "run", "cycles": "run", "sequences": "run",
		"retries": "run", "max-concurrent": "run", "no-subs": "run",
		"no-final-adaptive": "run", "json": "run", "pdb-dir": "run",
		"events": "run", "gantt": "run", "v": "run",
	}
	for _, c := range []struct {
		label string
		args  []string
	}{
		{"run", nil},
		{"pair", []string{"-scenario", "pair"}},
		{"table1", []string{"-scenario", "table1"}},
		{"sweep", []string{"-scenario", "sweep"}},
		{"tenant-sweep", []string{"-scenario", "tenant-sweep"}},
		{"paper", []string{"-scenario", "table1,fig2,fig3,fig4,fig5"}},
	} {
		fs := flag.NewFlagSet("run", flag.ContinueOnError)
		f := newFlags(fs)
		if err := fs.Parse(c.args); err != nil {
			t.Fatal(err)
		}
		if err := f.check(); err != nil {
			t.Fatal(err)
		}
		_, honours := f.rule()
		registered := 0
		fs.VisitAll(func(fl *flag.Flag) {
			registered++
			kinds, ok := honoured[fl.Name]
			if !ok {
				t.Errorf("flag -%s is missing from the table", fl.Name)
				return
			}
			if got, want := honours(fl.Name), slices.Contains(strings.Fields(kinds), c.label); got != want {
				t.Errorf("%s: honours(-%s) = %v, want %v", c.label, fl.Name, got, want)
			}
		})
		if registered != len(honoured) {
			t.Errorf("%d flags registered, %d in the table", registered, len(honoured))
		}
	}
}

// TestOutWritesReportFiles pins -out: every named scenario writes
// <name>.txt, equal to the report text of its stdout block, and
// <name>.csv, whose header names the scenario's CSV kind.
func TestOutWritesReportFiles(t *testing.T) {
	dir := t.TempDir()
	code, stdout, stderr := execCLI(t, "run", "-scenario", "table1,fig4", "-out", dir)
	if code != 0 {
		t.Fatalf("exit %d\nstderr: %s", code, stderr)
	}

	// A block is every line from one "scenario <name>: " header to the
	// next.
	blocks := map[string]string{}
	name := ""
	for _, line := range strings.SplitAfter(stdout, "\n") {
		if rest, ok := strings.CutPrefix(line, "scenario "); ok {
			name, _, _ = strings.Cut(rest, ":")
		}
		blocks[name] += line
	}
	for name, csvHeader := range map[string]string{"table1": "approach,iteration", "fig4": "approach,resource"} {
		block, ok := blocks[name]
		if !ok {
			t.Fatalf("no scenario %s block in stdout:\n%s", name, stdout)
		}
		txt, err := os.ReadFile(filepath.Join(dir, name+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		// The report follows the campaign summaries, each ending in a
		// blank line, and precedes the lines naming the written files.
		wrote := fmt.Sprintf("wrote %s\nwrote %s\n", filepath.Join(dir, name+".txt"), filepath.Join(dir, name+".csv"))
		if !strings.HasSuffix(block, "\n\n"+string(txt)+"\n"+wrote) {
			t.Errorf("%s.txt is not the report text of its stdout block\n--- file\n%s\n--- stdout\n%s", name, txt, block)
		}
		csv, err := os.ReadFile(filepath.Join(dir, name+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(string(csv), csvHeader+",") {
			t.Errorf("%s.csv header %q, want prefix %q", name, strings.SplitN(string(csv), "\n", 2)[0], csvHeader)
		}
	}
	if len(blocks) != 2 {
		t.Errorf("stdout has %d blocks, want 2", len(blocks))
	}
}

// sweepArtifacts are the sha256 digests of the files a seed-100, two-seed
// sweep writes with -csv and -chrome-trace.
var sweepArtifacts = map[string]string{
	"sweep.csv":        "ee5ddc69bfa33ca496ef129cc981d9f2e0fb2c27433df70d4e2fcf994ff146e0",
	"sweep.trace.json": "ab659eb235163eb13c3e30668c45a060c5ef56ea8dd4d5a446d1fddaf4725b4d",
}

// TestArtifactFiles pins the files the sweep and the paper figures write:
// the digests of a sweep's CSV and Chrome trace, and the bytes of every
// -out file of a -screen-size 8 paper run, kept in testdata/out
// (regenerate those with UPDATE_GOLDEN=1).
func TestArtifactFiles(t *testing.T) {
	dir := t.TempDir()
	csv, trace := filepath.Join(dir, "sweep.csv"), filepath.Join(dir, "sweep.trace.json")
	if code, _, stderr := execCLI(t, "run", "-scenario", "sweep", "-seed", "100", "-seeds", "2", "-csv", csv, "-chrome-trace", trace); code != 0 {
		t.Fatalf("sweep: exit %d\nstderr: %s", code, stderr)
	}
	for name, want := range sweepArtifacts {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != want {
			t.Errorf("%s: sha256 %s, want %s", name, got, want)
		}
	}

	out := filepath.Join(dir, "out")
	if code, _, stderr := execCLI(t, "run", "-scenario", "table1,fig3,fig4", "-screen-size", "8", "-out", out); code != 0 {
		t.Fatalf("paper figures: exit %d\nstderr: %s", code, stderr)
	}
	sameFiles(t, out, filepath.Join("testdata", "out"))
}
