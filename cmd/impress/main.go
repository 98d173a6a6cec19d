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
// The command parses one flag set, validated in one place, and rejects
// with exit 2 any flag the run does not honour, and any positional
// argument. A single campaign honours every flag but -seeds, -out and
// the tenancy flags. A scenario run honours the shared execution knobs,
// plus each workload flag (-seeds, -screen-size, -fleet, the tenancy
// flags) that some named scenario declares it reads
// (campaign.Scenario.Reads). Campaigns are hermetically seeded, so every
// output is identical at any -parallel setting.
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
	"slices"

	"impress"
	"impress/internal/campaign"
	"impress/internal/cliflags"
	"impress/internal/report"
	"impress/internal/scenariorun"
)

// usage is printed when the first argument is not the run mode.
const usage = `usage: impress run [flags]

  impress run [-protocol imrp|contv] [flags]    one campaign
  impress run -scenario name[,name...] [flags]  registered scenarios, run as one batch
  impress run -list-scenarios                   list the registered scenarios
`

// flags is the flag set of impress run.
type flags struct {
	*cliflags.Common
	fs *flag.FlagSet
	// scenarios are the scenarios -scenario names, once check has looked
	// them up.
	scenarios []campaign.Scenario

	protocol, scenario, targets, csv, json, pdbDir, out     string
	screenSize, seeds, cycles, sequences, retries           int
	maxConcurrent, gantt                                    int
	listScenarios, noSubs, noFinalAdaptive, events, verbose bool
}

func newFlags(fs *flag.FlagSet) *flags {
	f := &flags{Common: cliflags.Register(fs), fs: fs}
	fs.StringVar(&f.protocol, "protocol", "imrp", "protocol: imrp (adaptive) or contv (control)")
	fs.StringVar(&f.scenario, "scenario", "", "run registered scenarios instead of a single campaign: one name, or a comma-separated list run as one batch (e.g. table1,fig2,fig3,fig4,fig5); -list-scenarios shows all")
	fs.BoolVar(&f.listScenarios, "list-scenarios", false, "list registered scenarios and exit")
	fs.StringVar(&f.targets, "targets", "named", "workload: named (4 PDZ domains) or screen")
	fs.IntVar(&f.screenSize, "screen-size", 70, "screen workload size (also the scenario Targets parameter, e.g. the Fig. 3 screen)")
	fs.IntVar(&f.seeds, "seeds", 8, "seeds to sweep (multi-seed scenarios, e.g. sweep)")
	fs.IntVar(&f.cycles, "cycles", 0, "override design cycles per pipeline (0 = protocol default)")
	fs.IntVar(&f.sequences, "sequences", 0, "override MPNN sequences per cycle (0 = default)")
	fs.IntVar(&f.retries, "retries", -1, "override Stage-6 alternate retries (-1 = default)")
	fs.IntVar(&f.maxConcurrent, "max-concurrent", 0, "cap concurrently active pipelines (0 = unlimited)")
	fs.BoolVar(&f.noSubs, "no-subs", false, "disable dynamic sub-pipeline generation")
	fs.BoolVar(&f.noFinalAdaptive, "no-final-adaptive", false, "disable adaptivity in the final cycle (Fig. 3 setup)")
	fs.StringVar(&f.csv, "csv", "", "write the per-iteration CSV, or the one scenario's CSV report, to this path")
	fs.StringVar(&f.json, "json", "", "write the full campaign result as JSON to this path")
	fs.StringVar(&f.pdbDir, "pdb-dir", "", "write the best design per target as PDB files into this directory")
	fs.BoolVar(&f.events, "events", false, "print the campaign event log")
	fs.IntVar(&f.gantt, "gantt", 0, "print a task-timeline Gantt chart with up to N rows")
	fs.BoolVar(&f.verbose, "v", false, "also print per-trajectory details")
	fs.StringVar(&f.out, "out", "", "directory each scenario writes its report to, as <name>.txt and <name>.csv (optional)")
	return f
}

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
		stopProfiles, err = f.StartProfiles()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	defer stopProfiles()
	switch {
	case f.listScenarios:
		for _, s := range impress.Scenarios() {
			fmt.Printf("%-14s %s\n", s.Name, s.Description)
		}
		return 0
	case f.scenario != "":
		return scenariorun.Run(os.Stdout, os.Stderr, f.scenarios, f.params(), scenariorun.Options{
			Workers: f.Parallel, CSV: f.csv, ChromeTrace: f.ChromeTrace, Out: f.out,
		})
	}
	return runCampaign(f)
}

// check returns the usage error in the parsed command line, or nil: a
// stray argument, a bad value, an unknown scenario, or a flag the run
// does not honour. It looks up the scenarios -scenario names.
func (f *flags) check() error {
	if f.fs.NArg() > 0 {
		// Parsing stops at the first positional argument, so every flag
		// after it would be dropped silently too.
		return fmt.Errorf("unexpected argument %q: impress run takes flags only", f.fs.Arg(0))
	}
	if err := f.Validate(); err != nil {
		return err
	}
	// 0 (and -1 for -retries) selects a default; a count below that is a
	// usage error, not another way to ask for the default.
	for _, c := range []struct {
		name       string
		val, floor int
	}{
		{"seeds", f.seeds, 0},
		{"screen-size", f.screenSize, 0},
		{"cycles", f.cycles, 0},
		{"sequences", f.sequences, 0},
		{"retries", f.retries, -1},
		{"max-concurrent", f.maxConcurrent, 0},
		{"gantt", f.gantt, 0},
	} {
		if c.val < c.floor {
			return fmt.Errorf("-%s %d: must be %d or more", c.name, c.val, c.floor)
		}
	}
	if f.scenario == "" {
		// A scenario reads -screen-size 0 as its default width; a single
		// screen campaign has none.
		if f.targets == "screen" && f.screenSize < 1 {
			return fmt.Errorf("-screen-size %d: a screen campaign needs at least one target", f.screenSize)
		}
	} else {
		var err error
		if f.scenarios, err = scenariorun.Lookup(f.scenario); err != nil {
			return err
		}
	}
	return f.Reject(f.rule())
}

// params is the campaign spec every run starts from.
func (f *flags) params() campaign.Params {
	p := f.Params()
	p.Seeds = f.seeds
	p.Targets = f.screenSize
	return p
}

// rule returns the phrase naming what the parsed flags will run ("flags
// [...] do not apply to <scope>") and whether that honours each flag. A
// single campaign honours every flag but the sweep width, the tenancy
// flags and -out. A scenario run honours every shared execution knob,
// and each flag of scenarioFlag that some named scenario reads; -csv
// names one file, so it needs a lone scenario with a CSV report.
func (f *flags) rule() (string, func(string) bool) {
	if f.scenario == "" {
		return "single-campaign runs (use -scenario)", func(name string) bool {
			return name != "seeds" && name != "out" && !cliflags.Tenancy(name)
		}
	}
	return "-scenario " + f.scenario + " runs", func(name string) bool {
		switch name {
		case "scenario", "list-scenarios":
			return true
		case "csv":
			return len(f.scenarios) == 1 && f.scenarios[0].ReportCSV != nil
		}
		if reads := scenarioFlag(name); reads != nil {
			return slices.ContainsFunc(f.scenarios, reads)
		}
		return f.Shared(name)
	}
}

// scenarioFlag returns, for a flag only some scenarios honour, whether
// a scenario does: the workload flags it declares it reads, and -out
// when it has a report to write. It returns nil for every other flag.
func scenarioFlag(name string) func(campaign.Scenario) bool {
	switch {
	case name == "seeds":
		return func(sc campaign.Scenario) bool { return sc.Reads.Seeds }
	case name == "screen-size":
		return func(sc campaign.Scenario) bool { return sc.Reads.Targets }
	case name == "fleet":
		return func(sc campaign.Scenario) bool { return sc.Reads.Fleet }
	case cliflags.Tenancy(name):
		return func(sc campaign.Scenario) bool { return sc.Reads.Tenancy }
	case name == "out":
		return func(sc campaign.Scenario) bool { return sc.Report != nil || sc.ReportCSV != nil }
	}
	return nil
}

// runCampaign runs a single IM-RP or CONT-V campaign and prints its
// outcome and the requested artifacts.
func runCampaign(f *flags) int {
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
		ps, err := impress.FleetPilots(p.Fleet, p.Seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		cfg.Pilots = ps
	}
	f.PrintWarnings(os.Stderr)
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
		targets, err = impress.PDZScreen(p.Seed, f.screenSize)
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
	if f.ChromeTrace != "" {
		err := impress.WriteArtifact(f.ChromeTrace, func(w io.Writer) error {
			return impress.WriteChromeTrace(w, []*impress.Result{res}, []string{c.Name})
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Printf("\nwrote %s\n", f.ChromeTrace)
		fmt.Println()
		fmt.Print(impress.CriticalPathReport(res))
	}
	if f.json != "" {
		err := impress.WriteArtifact(f.json, func(w io.Writer) error {
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
		err := impress.WriteArtifact(f.csv, func(w io.Writer) error {
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
