// Command impress runs protein-design campaigns through the campaign
// engine and prints the outcome. It has one mode, run:
//
//	impress run [flags]                           one IM-RP or CONT-V campaign
//	impress run -scenario name[,name...] [flags]  registered scenarios, run as one batch
//	impress run -list-scenarios                   the registered scenarios
//
// The paper's evaluation is scenarios too: -scenario
// table1,fig2,fig3,fig4,fig5 regenerates Table I and Figs. 2–5, and
// -scenario sweep the CONT-V vs IM-RP pair across seeds.
//
// The command parses one flag set (flags.go), binds it into the one
// campaign.Params every run starts from, validates it in one place, and
// rejects with exit 2 any flag the run does not honour, and any
// positional argument. A single campaign honours every flag but -seeds,
// -out and the tenancy flags. A scenario run (scenarios.go) honours the
// execution knobs, plus each workload flag (-seeds, -screen-size,
// -fleet, the tenancy flags) that some named scenario declares it reads
// (campaign.Scenario.Reads), but none of the single campaign's own
// flags. Campaigns are hermetically seeded, so every output is
// identical at any -parallel setting.
//
// Examples:
//
//	impress run -protocol contv -seed 7
//	impress run -protocol imrp -pilots split -nodes 4 -steer greedy
//	impress run -scenario fault-sweep -seeds 4 -parallel 8 -mtbf 12h -csv resilience.csv
//	impress run -scenario sweep -seeds 20 -parallel 8 -csv sweep.csv
//	impress run -scenario table1,fig2,fig3,fig4,fig5 -parallel 0 -out results/
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"impress"
	"impress/internal/artifact"
	"impress/internal/campaign"
	"impress/internal/report"
)

// usage is printed when the first argument is not the run mode.
const usage = `usage: impress run [flags]

  impress run [-protocol imrp|contv] [flags]    one campaign
  impress run -scenario name[,name...] [flags]  registered scenarios, run as one batch
  impress run -list-scenarios                   list the registered scenarios
`

func main() {
	os.Exit(run(os.Args[1:]))
}

// run returns the process exit code instead of calling os.Exit directly,
// so deferred cleanup — notably the -cpuprofile/-memprofile writers —
// always executes.
func run(args []string) int {
	if len(args) == 0 || args[0] != "run" {
		fmt.Fprint(os.Stderr, usage)
		return 2
	}
	f := newFlags(flag.NewFlagSet("impress run", flag.ExitOnError))
	f.fs.Parse(args[1:]) // ExitOnError: a malformed flag exits 2 here
	err := f.check()
	var stopProfiles func()
	if err == nil {
		stopProfiles, err = f.startProfiles()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	defer stopProfiles()
	switch {
	case f.listScenarios:
		for _, s := range campaign.Scenarios() {
			fmt.Printf("%-14s %s\n", s.Name, s.Description)
		}
		return 0
	case f.scenario != "":
		return f.runScenarios(os.Stdout, os.Stderr)
	}
	return f.runCampaign()
}

// runCampaign runs a single IM-RP or CONT-V campaign and prints its
// outcome and the requested artifacts.
func (f *flags) runCampaign() int {
	p := f.params()

	// The protocol config fully encodes the execution policy
	// (ControlConfig is already sequential and non-adaptive), and flags
	// may override any part of it.
	var cfg impress.Config
	switch f.protocol {
	case "imrp":
		cfg = impress.AdaptiveConfig(p.Seed)
	case "contv":
		cfg = impress.ControlConfig(p.Seed)
	default:
		fmt.Fprintf(os.Stderr, "unknown protocol %q (want imrp or contv)\n", f.protocol)
		return 2
	}
	cfg, err := campaign.Configure(cfg, p)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if p.Fleet != "" {
		// A fleet spec defines its own split placement with explicit node
		// capacities, superseding -pilots/-nodes.
		ps, err := campaign.FleetPilots(p.Fleet, p.Seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		cfg.Pilots = ps
	}
	f.printWarnings(os.Stderr)
	if f.cycles > 0 {
		cfg.Pipeline.Cycles = f.cycles
	}
	if f.sequences > 0 {
		cfg.Pipeline.MPNN.NumSequences = f.sequences
	}
	if f.retries >= 0 {
		cfg.Pipeline.MaxRetries = f.retries
	}
	if f.maxConcurrent > 0 {
		cfg.MaxConcurrent = f.maxConcurrent
	}
	if f.noSubs {
		cfg.Sub.Enabled = false
	}
	if f.noFinalAdaptive {
		cfg.Pipeline.FinalCycleAdaptive = false
	}

	var targets []*impress.Target
	switch f.targets {
	case "named":
		targets, err = impress.NamedPDZTargets(p.Seed)
	case "screen":
		targets, err = impress.PDZScreen(p.Seed, p.Targets)
	default:
		fmt.Fprintf(os.Stderr, "unknown workload %q (want named or screen)\n", f.targets)
		return 2
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	c := impress.Campaign{
		Name:    fmt.Sprintf("%s/seed%d", f.protocol, p.Seed),
		Seed:    p.Seed,
		Targets: targets,
		Config:  cfg,
	}
	out := impress.RunCampaigns([]impress.Campaign{c}, 1)[0]
	if out.Err != nil {
		fmt.Fprintln(os.Stderr, out.Err)
		return 1
	}
	res := out.Result
	fmt.Println(impress.Summary(res))
	if ft := res.Faults; ft != nil {
		fmt.Printf("faults: %d task, %d node-crash (%d crashes), %d walltime; %d resubmitted, %d terminal, %d pipelines lost; goodput %.1f%%\n",
			ft.TaskFaults, ft.NodeCrashKills, ft.NodeCrashes, ft.WalltimeKills,
			ft.Resubmissions, ft.TerminalFailures, ft.KilledPipelines, 100*res.Goodput())
	}
	if res.SteerLabel() != "none" {
		fmt.Printf("steering: %s moved %d node(s) between pilots\n", res.SteerLabel(), res.NodeTransfers)
	}
	fmt.Println()
	for it := 1; it <= res.Iterations(); it++ {
		pl, ps := res.IterationSummary(it, impress.PLDDT)
		pt, _ := res.IterationSummary(it, impress.PTM)
		pa, _ := res.IterationSummary(it, impress.IPAE)
		fmt.Printf("iteration %d: pLDDT %.2f ± %.2f  pTM %.3f  ipAE %.2f\n", it, pl, ps/2, pt, pa)
	}
	if f.verbose {
		fmt.Println()
		for _, tr := range res.Trajectories {
			kind := "base"
			if tr.Sub {
				kind = "sub"
			}
			status := "accepted"
			if !tr.Accepted {
				status = "declined"
			}
			fmt.Printf("%-9s %-8s cycle %d gen %d rank %d evals %d  pLDDT %.2f pTM %.3f ipAE %.2f  [%s, %s]\n",
				tr.PipelineID, tr.Target, tr.Cycle, tr.Generation, tr.CandidateRank, tr.Evaluations,
				tr.Metrics.PLDDT, tr.Metrics.PTM, tr.Metrics.IPAE, kind, status)
		}
	}
	if f.events {
		fmt.Println("\nevent log:")
		for _, e := range res.Events {
			fmt.Println(" ", e)
		}
	}
	if f.gantt > 0 {
		fmt.Println()
		fmt.Print(impress.Gantt(res, f.gantt))
	}
	if f.chromeTrace != "" {
		err := artifact.WriteFile(f.chromeTrace, func(w io.Writer) error {
			return impress.WriteChromeTrace(w, []*impress.Result{res}, []string{c.Name})
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Printf("\nwrote %s\n", f.chromeTrace)
		fmt.Println()
		fmt.Print(impress.CriticalPathReport(res))
	}
	if f.json != "" {
		err := artifact.WriteFile(f.json, func(w io.Writer) error {
			return impress.WriteResultJSON(w, res, true)
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Printf("\nwrote %s\n", f.json)
	}
	if f.pdbDir != "" {
		// WriteDesignPDBs emits targets in sorted name order, so the files
		// and these log lines are deterministic run to run.
		paths, err := impress.WriteDesignPDBs(f.pdbDir, res)
		for _, path := range paths {
			fmt.Printf("wrote %s\n", path)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	if f.csv != "" {
		err := artifact.WriteFile(f.csv, func(w io.Writer) error {
			return report.IterationCSV(w, res.Iterations(), res)
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Printf("\nwrote %s\n", f.csv)
	}
	return 0
}
