// Command impress-experiments regenerates the paper's evaluation: Table I
// and Figures 2–5 of "Adaptive Protein Design Protocols and Middleware".
//
// Usage:
//
//	impress-experiments [flags] [experiment ...]
//
// Experiments: table1, fig2, fig3, fig4, fig5, or "all" (default).
//
// Flags (given before any experiment name):
//
//	-seed N       campaign seed (default 42)
//	-screen N     Fig. 3 screen size (default 70, the paper's)
//	-parallel N   run campaigns concurrently (default 1; 0 = GOMAXPROCS)
//	-policy P     scheduling-policy ablation (fifo, backfill, bestfit, worstfit, largest)
//	-fault P      resilience ablation: per-task failure probability
//	-mtbf D       resilience ablation: node crash MTBF (with -repair)
//	-outage-mtbf, -outage-dur, -cascade, -cascade-window, -maintenance
//	              resilience ablation: correlated failure-domain models
//	-recovery R   fault-recovery policy (none, retry, backoff, elsewhere)
//	-out DIR      also write <experiment>.txt and <experiment>.csv files
//	-cpuprofile, -memprofile  pprof profiles of the run
//
// Scenario mode (-scenario NAME) runs a registered campaign scenario
// instead and also honours the execution flags the paper experiments
// reject when set: -steer, -fleet, -checkpoint-interval,
// -walltime-grace, -chrome-trace and the tenancy flags -tenants,
// -arrival, -arrival-span, -admit and -reclaim.
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
	"impress/internal/cliflags"
	"impress/internal/scenariorun"
)

func main() {
	os.Exit(run())
}

// run returns the process exit code instead of calling os.Exit directly,
// so the deferred -cpuprofile/-memprofile writers always execute.
func run() int {
	common := cliflags.Register(flag.CommandLine, cliflags.Options{
		SeedDefault:     42,
		ParallelDefault: 1,
	})
	screen := flag.Int("screen", 70, "Fig. 3 screen size")
	outDir := flag.String("out", "", "directory for .txt/.csv outputs (optional)")
	scenario := flag.String("scenario", "",
		"run a registered campaign scenario (screen, stress, mega-screen, …) instead of the paper experiments")
	flag.Parse()

	if err := common.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if *screen < 0 {
		fmt.Fprintf(os.Stderr, "-screen %d: must be 0 or more\n", *screen)
		return 2
	}
	stopProfiles, err := common.StartProfiles()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	defer stopProfiles()

	p := common.Params()
	p.Targets = *screen

	if *scenario != "" {
		// Scenarios that declare a CSV report write it into -out, mirroring
		// the per-experiment CSV convention.
		csvPath := ""
		if *outDir != "" {
			if sc, ok := impress.LookupScenario(*scenario); ok && sc.ReportCSV != nil {
				if err := os.MkdirAll(*outDir, 0o755); err != nil {
					fmt.Fprintln(os.Stderr, err)
					return 1
				}
				csvPath = filepath.Join(*outDir, *scenario+".csv")
			}
		}
		return scenariorun.Run(os.Stdout, os.Stderr, *scenario, p, common.Parallel, csvPath, common.ChromeTrace)
	}
	// The paper experiments replicate the paper's single-pilot machine and
	// execution model: only seeding, the scheduling-policy and fault
	// ablations, and output flags apply. Any other explicitly set flag
	// is rejected rather than silently dropped.
	honoured := func(name string) bool { return paperFlags[name] }
	if err := common.Reject("the paper experiments (use -scenario)", honoured); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	want := make(map[string]bool)
	for _, s := range flag.Args() {
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

	// Every selected scenario's campaigns run as one batch on -parallel
	// engine workers; the reports print in selection order.
	type experiment struct {
		sc     impress.Scenario
		lo, hi int // the scenario's campaigns in the batch
		err    error
	}
	var (
		exps  []experiment
		batch []impress.Campaign
	)
	for _, id := range paperScenarios {
		if !want["all"] && !want[id] {
			continue
		}
		sc, _ := impress.LookupScenario(id)
		cs, err := sc.Build(p)
		exps = append(exps, experiment{sc: sc, lo: len(batch), hi: len(batch) + len(cs), err: err})
		batch = append(batch, cs...)
	}
	outs := impress.RunCampaigns(batch, common.Parallel)

	failed := false
	for _, e := range exps {
		title := e.sc.Description
		if e.sc.Name == "fig3" && e.hi > e.lo {
			// The description names the paper's 70-structure screen; the
			// header names the -screen width that ran.
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
		if *outDir != "" {
			if err := writeOutputs(*outDir, e.sc, text, results); err != nil {
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

// paperScenarios are the registered scenarios behind the paper's
// evaluation, in the order "all" runs them.
var paperScenarios = []string{"table1", "fig2", "fig3", "fig4", "fig5"}

// paperFlags are the flags the paper experiments honour.
var paperFlags = map[string]bool{
	"seed": true, "parallel": true, "screen": true, "out": true,
	"cpuprofile": true, "memprofile": true, "policy": true, "recovery": true,
	"fault": true, "mtbf": true, "repair": true, "outage-mtbf": true,
	"outage-dur": true, "cascade": true, "cascade-window": true, "maintenance": true,
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
