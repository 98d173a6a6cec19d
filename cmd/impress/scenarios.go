package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"impress/internal/artifact"
	"impress/internal/campaign"
	"impress/internal/core"
	"impress/internal/report"
	"impress/internal/telemetry"
)

// lookupScenarios returns the registered scenarios a comma-separated
// list names, in list order. An unknown or repeated name is an error.
func lookupScenarios(list string) ([]campaign.Scenario, error) {
	var scs []campaign.Scenario
	seen := make(map[string]bool)
	for _, name := range strings.Split(list, ",") {
		sc, ok := campaign.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("campaign: unknown scenario %q (known: %v)", name, campaign.Names())
		}
		if seen[name] {
			return nil, fmt.Errorf("campaign: scenario %q named twice", name)
		}
		seen[name] = true
		scs = append(scs, sc)
	}
	return scs, nil
}

// runScenarios builds every scenario -scenario names and executes all
// their campaigns as one batch. Then, scenario by scenario, it writes to
// stdout the block a run of that scenario alone would write — a header,
// a summary per completed campaign, the report and the requested report
// files — and to stderr each failed campaign. The Chrome trace follows
// the last block, one Perfetto process track per pilot, each labelled
// by campaign name, prefixed with the scenario name in a list. The
// return value is the process exit code: 0 on full success, 1 when any
// campaign failed or an artifact could not be written, 2 on a build
// error.
func (f *flags) runScenarios(stdout, stderr io.Writer) int {
	if f.out != "" {
		if err := os.MkdirAll(f.out, 0o755); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	scs, p := f.scenarios, f.params()
	var batch []campaign.Campaign
	sizes := make([]int, len(scs))
	for i, sc := range scs {
		cs, err := sc.Build(p)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		batch = append(batch, cs...)
		sizes[i] = len(cs)
	}
	engine := campaign.NewEngine(f.parallel)
	outs := engine.Run(batch)
	a := artifacts{stdout: stdout, stderr: stderr}
	failed := 0
	var traces []telemetry.CampaignTrace
	for i, sc := range scs {
		scOuts := outs[:sizes[i]]
		outs = outs[sizes[i]:]
		fmt.Fprintf(stdout, "scenario %s: %d campaigns on %d workers\n\n",
			sc.Name, len(scOuts), engine.WorkersFor(len(scOuts)))
		var results []*core.Result
		for _, out := range scOuts {
			if out.Err != nil {
				failed++
				fmt.Fprintf(stderr, "%s failed: %v\n", out.Name, out.Err)
				continue
			}
			results = append(results, out.Result)
			if f.chromeTrace != "" {
				// Scenarios of a list may name campaigns alike (table1
				// and fig4 both run contv/seed42), so a list's trace
				// labels each with its scenario too.
				label := out.Name
				if len(scs) > 1 {
					label = sc.Name + "/" + out.Name
				}
				traces = append(traces, out.Result.CampaignTrace(label))
			}
			fmt.Fprintf(stdout, "%-20s %s\n\n", out.Name, report.Summary(out.Result))
		}
		var text string
		if sc.Report != nil && len(results) > 0 {
			text = sc.Report(results)
			fmt.Fprintln(stdout, text)
		}

		// A scenario without a report, or a run where every campaign
		// failed, has nothing to write.
		noText, noCSV := "", ""
		if len(results) == 0 {
			noText, noCSV = "no campaign completed", "no campaign completed"
		}
		if sc.Report == nil {
			noText = "scenario " + sc.Name + " declares no report"
		}
		if sc.ReportCSV == nil {
			noCSV = "scenario " + sc.Name + " declares no CSV report"
		}
		writeCSV := func(w io.Writer) error { return sc.ReportCSV(w, results) }
		a.write(f.csv, noCSV, writeCSV)
		if f.out != "" {
			a.write(filepath.Join(f.out, sc.Name+".txt"), noText, func(w io.Writer) error {
				_, err := io.WriteString(w, text)
				return err
			})
			a.write(filepath.Join(f.out, sc.Name+".csv"), noCSV, writeCSV)
		}
	}
	noTrace := ""
	if len(traces) == 0 {
		noTrace = "no campaign completed"
	}
	a.write(f.chromeTrace, noTrace, func(w io.Writer) error { return telemetry.WriteChromeTrace(w, traces) })
	if failed > 0 {
		fmt.Fprintf(stderr, "%d/%d campaigns failed\n", failed, len(batch))
		return 1
	}
	if a.failed {
		return 1
	}
	return 0
}

// artifacts writes the files a run was asked for. A requested file is
// never silently missing: when there is nothing to write, it says so on
// stderr instead of exiting as if the file had been produced.
type artifacts struct {
	stdout, stderr io.Writer
	// failed records that some write failed.
	failed bool
}

// write writes path with fn and names it on stdout. It does nothing for
// an empty path, and warns instead when missing says why there is
// nothing to write.
func (a *artifacts) write(path, missing string, fn func(io.Writer) error) {
	switch {
	case path == "":
	case missing != "":
		fmt.Fprintf(a.stderr, "warning: %s; %s not written\n", missing, path)
	default:
		if err := artifact.WriteFile(path, fn); err != nil {
			fmt.Fprintln(a.stderr, err)
			a.failed = true
			return
		}
		fmt.Fprintf(a.stdout, "wrote %s\n", path)
	}
}
