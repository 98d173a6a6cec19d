// Command impress runs protein-design campaigns through the campaign
// engine and prints the outcome. Its first argument picks a mode:
//
//	impress run [flags]                           one campaign, or a registered scenario
//	impress sweep [flags]                         the CONT-V vs IM-RP pair across seeds
//	impress experiments [flags] [experiment ...]  the paper's Table I and Figures 2–5
//
// Every mode parses one flag set, validated in one place, and rejects
// with exit 2 any flag its rule does not honour. Only run takes
// -scenario, and only experiments takes positional arguments, after the
// flags. Campaigns are hermetically seeded, so every output is identical
// at any -parallel setting.
//
// Examples:
//
//	impress run -protocol contv -seed 7
//	impress run -protocol imrp -pilots split -nodes 4 -steer greedy
//	impress run -scenario fault-sweep -seeds 4 -parallel 8 -mtbf 12h -csv resilience.csv
//	impress sweep -seeds 20 -parallel 8 -csv sweep.csv
//	impress experiments -parallel 0 -out results/
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"impress"
	"impress/internal/campaign"
	"impress/internal/cliflags"
	"impress/internal/report"
	"impress/internal/scenariorun"
	"impress/internal/stats"
)

// A mode is one way to drive the campaign engine from the shared flags.
type mode struct {
	name, summary string
	// names is whether the mode takes positional arguments (experiment
	// names); the other modes reject any.
	names bool
	// rule returns the phrase naming what the parsed flags will run
	// ("flags [...] do not apply to <scope>") and whether that honours
	// each flag.
	rule func(f *flags) (scope string, honours func(name string) bool)
	exec func(f *flags) int
}

var modes = []mode{
	{"run", "one campaign (-protocol imrp or contv), or a registered scenario (-scenario, -list-scenarios)", false, runRule, runMode},
	{"sweep", "the CONT-V vs IM-RP pair across -seeds consecutive seeds from -seed", false, sweepRule, sweepMode},
	{"experiments", "the paper's Table I and Figures 2–5 (table1 fig2 fig3 fig4 fig5, or all)", true, experimentsRule, experimentsMode},
}

// flags is the one flag set every mode parses.
type flags struct {
	*cliflags.Common
	fs *flag.FlagSet

	protocol, scenario, targets, csv, json, pdbDir, out     string
	screenSize, seeds, cycles, sequences, retries           int
	maxConcurrent, gantt                                    int
	listScenarios, noSubs, noFinalAdaptive, events, verbose bool
}

func newFlags(fs *flag.FlagSet) *flags {
	f := &flags{Common: cliflags.Register(fs), fs: fs}
	fs.StringVar(&f.protocol, "protocol", "imrp", "protocol: imrp (adaptive) or contv (control)")
	fs.StringVar(&f.scenario, "scenario", "", "run a registered scenario instead of a single campaign (pair, sweep, screen, stress); -list-scenarios shows all")
	fs.BoolVar(&f.listScenarios, "list-scenarios", false, "list registered scenarios and exit")
	fs.StringVar(&f.targets, "targets", "named", "workload: named (4 PDZ domains) or screen")
	fs.IntVar(&f.screenSize, "screen-size", 70, "screen workload size (also the scenario Targets parameter and the Fig. 3 screen)")
	fs.IntVar(&f.seeds, "seeds", 8, "seeds to sweep (the pair sweep and multi-seed scenarios)")
	fs.IntVar(&f.cycles, "cycles", 0, "override design cycles per pipeline (0 = protocol default)")
	fs.IntVar(&f.sequences, "sequences", 0, "override MPNN sequences per cycle (0 = default)")
	fs.IntVar(&f.retries, "retries", -1, "override Stage-6 alternate retries (-1 = default)")
	fs.IntVar(&f.maxConcurrent, "max-concurrent", 0, "cap concurrently active pipelines (0 = unlimited)")
	fs.BoolVar(&f.noSubs, "no-subs", false, "disable dynamic sub-pipeline generation")
	fs.BoolVar(&f.noFinalAdaptive, "no-final-adaptive", false, "disable adaptivity in the final cycle (Fig. 3 setup)")
	fs.StringVar(&f.csv, "csv", "", "write the per-iteration, per-seed or scenario CSV to this path")
	fs.StringVar(&f.json, "json", "", "write the full campaign result as JSON to this path")
	fs.StringVar(&f.pdbDir, "pdb-dir", "", "write the best design per target as PDB files into this directory")
	fs.BoolVar(&f.events, "events", false, "print the campaign event log")
	fs.IntVar(&f.gantt, "gantt", 0, "print a task-timeline Gantt chart with up to N rows")
	fs.BoolVar(&f.verbose, "v", false, "also print per-trajectory details")
	fs.StringVar(&f.out, "out", "", "directory for the experiments' .txt/.csv outputs (optional)")
	return f
}

func main() {
	os.Exit(run(os.Args[1:]))
}

// run returns the process exit code instead of calling os.Exit directly,
// so deferred cleanup — notably the -cpuprofile/-memprofile writers —
// always executes.
func run(args []string) int {
	var m *mode
	if len(args) > 0 {
		m = lookupMode(args[0])
	}
	if m == nil {
		fmt.Fprintln(os.Stderr, "usage: impress <mode> [flags]\n\nmodes:")
		for _, m := range modes {
			fmt.Fprintf(os.Stderr, "  %-12s %s\n", m.name, m.summary)
		}
		return 2
	}
	f := newFlags(flag.NewFlagSet("impress "+m.name, flag.ExitOnError))
	f.fs.Parse(args[1:]) // ExitOnError: a malformed flag exits 2 here
	err := f.check(m)
	var stopProfiles func()
	if err == nil {
		stopProfiles, err = f.StartProfiles()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	defer stopProfiles()
	return m.exec(f)
}

// lookupMode returns the mode called name, or nil.
func lookupMode(name string) *mode {
	for i := range modes {
		if modes[i].name == name {
			return &modes[i]
		}
	}
	return nil
}

// check returns the usage error in the parsed command line of mode m, or
// nil: a stray argument, a flag m does not honour, or a bad value.
func (f *flags) check(m *mode) error {
	if f.fs.NArg() > 0 && !m.names {
		// Parsing stops at the first positional argument, so every flag
		// after it would be dropped silently too.
		return fmt.Errorf("unexpected argument %q: impress %s takes flags only", f.fs.Arg(0), m.name)
	}
	if err := f.Reject(m.rule(f)); err != nil {
		return err
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
	// A scenario reads -screen-size 0 as its default width; a single
	// screen campaign has none.
	if f.scenario == "" && f.targets == "screen" && f.screenSize < 1 {
		return fmt.Errorf("-screen-size %d: a screen campaign needs at least one target", f.screenSize)
	}
	return nil
}

// params is the campaign spec every mode runs from.
func (f *flags) params() campaign.Params {
	p := f.Params()
	p.Seeds = f.seeds
	p.Targets = f.screenSize
	return p
}

// runRule: a scenario honours every execution knob plus its width flags,
// and -csv exactly when it declares a CSV report; a single campaign
// honours every flag but the sweep width, the tenancy flags and -out.
func runRule(f *flags) (string, func(string) bool) {
	if f.scenario == "" {
		return "single-campaign runs (use -scenario)", func(name string) bool {
			return name != "seeds" && name != "out" && !cliflags.Tenancy(name)
		}
	}
	sc, known := impress.LookupScenario(f.scenario)
	return "-scenario " + f.scenario + " runs", func(name string) bool {
		switch name {
		case "scenario", "list-scenarios", "seeds", "screen-size":
			return true
		case "csv":
			return sc.ReportCSV != nil
		}
		// An unknown scenario is reported by name when it fails to build.
		return !known || f.Shared(name)
	}
}

// sweepRule: the pair sweep runs on each protocol's own machine, so
// neither -fleet nor the tenancy flags reach its campaigns.
func sweepRule(f *flags) (string, func(string) bool) {
	return "the pair sweep (use impress run -scenario)", func(name string) bool {
		switch name {
		case "seeds", "csv":
			return true
		case "fleet":
			return false
		}
		return f.Shared(name) && !cliflags.Tenancy(name)
	}
}

// experimentsRule: the paper experiments replicate the paper's
// single-pilot machine and execution model, so only the flags in
// paperFlags apply.
func experimentsRule(*flags) (string, func(string) bool) {
	return "the paper experiments (use impress run -scenario)", func(name string) bool { return paperFlags[name] }
}

// paperFlags are the flags the paper experiments honour.
var paperFlags = map[string]bool{
	"seed": true, "parallel": true, "screen-size": true, "out": true,
	"cpuprofile": true, "memprofile": true, "policy": true, "recovery": true,
	"fault": true, "mtbf": true, "repair": true, "outage-mtbf": true,
	"outage-dur": true, "cascade": true, "cascade-window": true, "maintenance": true,
}

// runMode lists the scenarios, runs one, or runs a single IM-RP or
// CONT-V campaign and prints its outcome and the requested artifacts.
func runMode(f *flags) int {
	if f.listScenarios {
		for _, s := range impress.Scenarios() {
			fmt.Printf("%-14s %s\n", s.Name, s.Description)
		}
		return 0
	}
	p := f.params()
	if f.scenario != "" {
		return scenariorun.Run(os.Stdout, os.Stderr, f.scenario, p, f.Parallel, f.csv, f.ChromeTrace)
	}

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

// sweepMode runs the CONT-V vs IM-RP pair at each seed and reports the
// distribution of outcomes — the statistical robustness check behind the
// single-seed numbers of Table I. A failing seed is reported and
// skipped: completed rows are kept, summarized and written to CSV, but
// the exit code is non-zero whenever any seed failed.
func sweepMode(f *flags) int {
	type row struct {
		seed       uint64
		ctrl, adpt *impress.Result
	}
	f.PrintWarnings(os.Stderr)

	// The sweep scenario is the CONT-V/IM-RP pair at each seed.
	campaigns, err := impress.BuildScenario("sweep", f.params())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	outs := impress.RunCampaigns(campaigns, f.Parallel)

	// Collect per-seed rows, keeping every completed pair even when other
	// seeds failed, and the pairs' campaign names as Chrome-trace labels.
	var rows []row
	var labels []string
	failures := 0
	for i := 0; i < len(outs); i += 2 {
		seed, ctrl, adpt := campaigns[i].Seed, outs[i], outs[i+1]
		if ctrl.Err != nil || adpt.Err != nil {
			failures++
			for _, o := range []impress.CampaignOutcome{ctrl, adpt} {
				if o.Err != nil {
					fmt.Fprintf(os.Stderr, "seed %d: %v\n", seed, o.Err)
				}
			}
			continue
		}
		r := row{seed, ctrl.Result, adpt.Result}
		rows = append(rows, r)
		labels = append(labels, ctrl.Name, adpt.Name)
		fmt.Printf("seed %d: Δ pLDDT CONT-V %+.2f vs IM-RP %+.2f; GPU %.1f%% vs %.1f%%; traj %d vs %d; sub-PL %d\n",
			seed, r.ctrl.NetDelta(impress.PLDDT), r.adpt.NetDelta(impress.PLDDT),
			r.ctrl.GPUUtilization*100, r.adpt.GPUUtilization*100,
			r.ctrl.TrajectoryCount(), r.adpt.TrajectoryCount(), r.adpt.SubPipelines)
	}
	if len(rows) == 0 {
		fmt.Fprintln(os.Stderr, "no seeds completed")
		return 1
	}

	collect := func(metric func(r row) float64) []float64 {
		out := make([]float64, len(rows))
		for i, r := range rows {
			out[i] = metric(r)
		}
		return out
	}
	wins := 0
	for _, r := range rows {
		if r.adpt.NetDelta(impress.PLDDT) > r.ctrl.NetDelta(impress.PLDDT) {
			wins++
		}
	}

	fmt.Printf("\nsweep over %d seeds:\n", len(rows))
	describe := func(name string, xs []float64) {
		d := stats.Describe(xs)
		fmt.Printf("  %-24s median %8.3f  mean %8.3f  σ %7.3f  [%.3f, %.3f]\n",
			name, d.Median, d.Mean, d.StdDev, d.Min, d.Max)
	}
	describe("CONT-V Δ pLDDT", collect(func(r row) float64 { return r.ctrl.NetDelta(impress.PLDDT) }))
	describe("IM-RP Δ pLDDT", collect(func(r row) float64 { return r.adpt.NetDelta(impress.PLDDT) }))
	describe("CONT-V Δ pTM", collect(func(r row) float64 { return r.ctrl.NetDelta(impress.PTM) }))
	describe("IM-RP Δ pTM", collect(func(r row) float64 { return r.adpt.NetDelta(impress.PTM) }))
	describe("CONT-V CPU util", collect(func(r row) float64 { return r.ctrl.CPUUtilization }))
	describe("IM-RP CPU util", collect(func(r row) float64 { return r.adpt.CPUUtilization }))
	describe("CONT-V GPU util", collect(func(r row) float64 { return r.ctrl.GPUUtilization }))
	describe("IM-RP GPU util", collect(func(r row) float64 { return r.adpt.GPUUtilization }))
	describe("IM-RP sub-pipelines", collect(func(r row) float64 { return float64(r.adpt.SubPipelines) }))
	describe("IM-RP trajectories", collect(func(r row) float64 { return float64(r.adpt.TrajectoryCount()) }))
	fmt.Printf("  IM-RP beats CONT-V on Δ pLDDT in %d/%d seeds\n", wins, len(rows))
	if rows[0].adpt.Faults != nil {
		describe("IM-RP goodput", collect(func(r row) float64 { return r.adpt.Goodput() }))
		describe("IM-RP killed pipelines", collect(func(r row) float64 { return float64(r.adpt.Faults.KilledPipelines) }))
	}

	if f.csv != "" {
		err := impress.WriteArtifact(f.csv, func(w io.Writer) error {
			if _, err := fmt.Fprintln(w, "seed,approach,dplddt,dptm,dipae,cpu_util,gpu_util,trajectories,sub_pipelines,aggregate_h,makespan_h,goodput"); err != nil {
				return err
			}
			for _, r := range rows {
				for _, res := range []*impress.Result{r.ctrl, r.adpt} {
					if _, err := fmt.Fprintf(w, "%d,%s,%.4f,%.4f,%.4f,%.4f,%.4f,%d,%d,%.3f,%.3f,%.4f\n",
						r.seed, res.Approach,
						res.NetDelta(impress.PLDDT), res.NetDelta(impress.PTM), res.NetDelta(impress.IPAE),
						res.CPUUtilization, res.GPUUtilization,
						res.TrajectoryCount(), res.SubPipelines,
						res.AggregateTaskTime.Hours(), res.Makespan.Hours(), res.Goodput()); err != nil {
						return err
					}
				}
			}
			return nil
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Printf("\nwrote %s\n", f.csv)
	}

	if f.ChromeTrace != "" {
		var results []*impress.Result
		for _, r := range rows {
			results = append(results, r.ctrl, r.adpt)
		}
		err := impress.WriteArtifact(f.ChromeTrace, func(w io.Writer) error {
			return impress.WriteChromeTrace(w, results, labels)
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Printf("\nwrote %s\n", f.ChromeTrace)
	}

	if failures > 0 {
		fmt.Fprintf(os.Stderr, "\n%d seed(s) failed; %d completed rows kept\n", failures, len(rows))
		return 1
	}
	return 0
}

// paperScenarios are the registered scenarios behind the paper's
// evaluation, in the order "all" runs them.
var paperScenarios = []string{"table1", "fig2", "fig3", "fig4", "fig5"}

// experimentsMode regenerates the paper's evaluation: every selected
// scenario's campaigns run as one batch on -parallel engine workers, and
// the reports print in selection order under "###" headers.
func experimentsMode(f *flags) int {
	want := make(map[string]bool)
	for _, s := range f.fs.Args() {
		want[strings.ToLower(s)] = true
	}
	if len(want) == 0 {
		want["all"] = true
	}
	for id := range want {
		if id != "all" && !slices.Contains(paperScenarios, id) {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (known: table1 fig2 fig3 fig4 fig5 all)\n", id)
			return 2
		}
	}

	type experiment struct {
		sc     impress.Scenario
		lo, hi int // the scenario's campaigns in the batch
		err    error
	}
	var (
		exps  []experiment
		batch []impress.Campaign
	)
	p := f.params()
	for _, id := range paperScenarios {
		if !want["all"] && !want[id] {
			continue
		}
		sc, _ := impress.LookupScenario(id)
		cs, err := sc.Build(p)
		exps = append(exps, experiment{sc: sc, lo: len(batch), hi: len(batch) + len(cs), err: err})
		batch = append(batch, cs...)
	}
	outs := impress.RunCampaigns(batch, f.Parallel)

	failed := false
	for _, e := range exps {
		title := e.sc.Description
		if e.sc.Name == "fig3" && e.hi > e.lo {
			// The description names the paper's 70-structure screen; the
			// header names the -screen-size width that ran.
			title = strings.Replace(title, "70 structures", fmt.Sprintf("%d structures", len(batch[e.lo].Targets)), 1)
		}
		fmt.Printf("### %s — %s (seed %d)\n\n", e.sc.Name, title, p.Seed)
		var results []*impress.Result
		for _, o := range outs[e.lo:e.hi] {
			if e.err == nil {
				e.err = o.Err
			}
			results = append(results, o.Result)
		}
		if e.err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", e.sc.Name, e.err)
			failed = true
			continue
		}
		text := e.sc.Report(results)
		fmt.Println(text)
		if f.out != "" {
			if err := writeOutputs(f.out, e.sc, text, results); err != nil {
				fmt.Fprintf(os.Stderr, "writing %s outputs: %v\n", e.sc.Name, err)
				failed = true
			}
		}
	}
	if failed {
		return 1
	}
	return 0
}

func writeOutputs(dir string, sc impress.Scenario, text string, results []*impress.Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := impress.WriteArtifact(filepath.Join(dir, sc.Name+".txt"), func(w io.Writer) error {
		_, err := io.WriteString(w, text)
		return err
	}); err != nil {
		return err
	}
	return impress.WriteArtifact(filepath.Join(dir, sc.Name+".csv"), func(w io.Writer) error {
		return sc.ReportCSV(w, results)
	})
}
