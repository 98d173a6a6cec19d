// Package scenariorun executes registered campaign scenarios on the
// campaign engine and renders the standard CLI output — one summary per
// campaign, each scenario's cross-campaign report, and its CSV
// companion.
//
// It is the one scenario path of the impress command (impress run
// -scenario), so a workload registered once in internal/campaign (pair,
// sweep, the paper's table1 and fig2–fig5, screen, stress,
// policy-compare, fault-sweep, mega-screen…) is reachable from the
// command line without a new main.
package scenariorun

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

// Options are a run's engine width and the artifacts it writes.
type Options struct {
	// Workers is the engine worker count (0 = GOMAXPROCS).
	Workers int
	// CSV, when set, is the path a one-scenario run writes the
	// scenario's CSV report to.
	CSV string
	// ChromeTrace, when set, switches telemetry on and is the path every
	// completed campaign's timeline is written to, in Chrome Trace Event
	// Format (one Perfetto process track per pilot). Tracks are labelled
	// by campaign name, prefixed with the scenario name in a list.
	ChromeTrace string
	// Out, when set, is a directory each scenario writes its report to,
	// as <name>.txt (the report text) and <name>.csv.
	Out string
}

// Lookup returns the registered scenarios a comma-separated list names,
// in list order. An unknown or repeated name is an error.
func Lookup(list string) ([]campaign.Scenario, error) {
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

// Run builds every scenario in scs with p and executes all their
// campaigns as one batch. Then, scenario by scenario, it writes to
// stdout the block a run of that scenario alone would write — a header,
// a summary per completed campaign, the report and the requested report
// files — and to stderr each failed campaign. The Chrome trace follows
// the last block. The return value is the process exit code: 0 on full
// success, 1 when any campaign failed or an artifact could not be
// written, 2 on a build error.
func Run(stdout, stderr io.Writer, scs []campaign.Scenario, p campaign.Params, o Options) int {
	if o.CSV != "" && len(scs) != 1 {
		fmt.Fprintln(stderr, "scenariorun: a CSV path takes one scenario; write the reports of several to Out")
		return 2
	}
	if o.Out != "" {
		if err := os.MkdirAll(o.Out, 0o755); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	if o.ChromeTrace != "" {
		p.Telemetry = true
	}
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
	engine := campaign.NewEngine(o.Workers)
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
			if o.ChromeTrace != "" {
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
		a.write(o.CSV, noCSV, writeCSV)
		if o.Out != "" {
			a.write(filepath.Join(o.Out, sc.Name+".txt"), noText, func(w io.Writer) error {
				_, err := io.WriteString(w, text)
				return err
			})
			a.write(filepath.Join(o.Out, sc.Name+".csv"), noCSV, writeCSV)
		}
	}
	noTrace := ""
	if len(traces) == 0 {
		noTrace = "no campaign completed"
	}
	a.write(o.ChromeTrace, noTrace, func(w io.Writer) error { return telemetry.WriteChromeTrace(w, traces) })
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
