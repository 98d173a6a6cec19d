// Package scenariorun executes a registered campaign scenario on the
// campaign engine and renders the standard CLI output — one summary per
// campaign, the scenario's cross-campaign report, and its CSV companion.
//
// It is the one scenario path of the impress command (impress run
// -scenario), so a workload registered once in internal/campaign (pair,
// sweep, screen, stress, policy-compare, fault-sweep, mega-screen…) is
// reachable from the command line without a new main.
package scenariorun

import (
	"fmt"
	"io"

	"impress/internal/artifact"
	"impress/internal/campaign"
	"impress/internal/core"
	"impress/internal/report"
	"impress/internal/telemetry"
)

// Run builds the named scenario with p, executes it on workers engine
// workers, and writes human-readable output to stdout and failures to
// stderr. When csvPath is non-empty and the scenario declares a CSV
// report, it is written there. When chromePath is non-empty, telemetry
// is switched on and every completed campaign's timeline is written
// there in Chrome Trace Event Format (one Perfetto process track per
// pilot). The return value is the process exit code: 0 on full success,
// 1 when any campaign failed, 2 on a build error.
func Run(stdout, stderr io.Writer, name string, p campaign.Params, workers int, csvPath, chromePath string) int {
	if chromePath != "" {
		p.Telemetry = true
	}
	campaigns, err := campaign.Build(name, p)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	sc, _ := campaign.Lookup(name)
	fmt.Fprintf(stdout, "scenario %s: %d campaigns on %d workers\n\n",
		name, len(campaigns), campaign.NewEngine(workers).WorkersFor(len(campaigns)))
	outs := campaign.Run(campaigns, workers)
	failed := 0
	var results []*core.Result
	var labels []string
	for _, o := range outs {
		if o.Err != nil {
			failed++
			fmt.Fprintf(stderr, "%s failed: %v\n", o.Name, o.Err)
			continue
		}
		results = append(results, o.Result)
		labels = append(labels, o.Name)
		fmt.Fprintf(stdout, "%-20s %s\n\n", o.Name, report.Summary(o.Result))
	}
	if sc.Report != nil && len(results) > 0 {
		fmt.Fprintln(stdout, sc.Report(results))
	}
	if csvPath != "" {
		// A requested artifact is never silently missing: when the
		// scenario has no CSV report — or every campaign failed and there
		// is nothing to write — say so instead of exiting as if the file
		// had been produced.
		switch {
		case sc.ReportCSV == nil:
			fmt.Fprintf(stderr, "warning: scenario %s declares no CSV report; %s not written\n", name, csvPath)
		case len(results) == 0:
			fmt.Fprintf(stderr, "warning: no campaign completed; %s not written\n", csvPath)
		default:
			if err := artifact.WriteFile(csvPath, func(w io.Writer) error {
				return sc.ReportCSV(w, results)
			}); err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
			fmt.Fprintf(stdout, "wrote %s\n", csvPath)
		}
	}
	if chromePath != "" {
		// Same artifact discipline as the CSV: a requested trace is never
		// silently missing.
		if len(results) == 0 {
			fmt.Fprintf(stderr, "warning: no campaign completed; %s not written\n", chromePath)
		} else {
			cts := make([]telemetry.CampaignTrace, len(results))
			for i, r := range results {
				cts[i] = r.CampaignTrace(labels[i])
			}
			if err := artifact.WriteFile(chromePath, func(w io.Writer) error {
				return telemetry.WriteChromeTrace(w, cts)
			}); err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
			fmt.Fprintf(stdout, "wrote %s\n", chromePath)
		}
	}
	if failed > 0 {
		fmt.Fprintf(stderr, "%d/%d campaigns failed\n", failed, len(outs))
		return 1
	}
	return 0
}
