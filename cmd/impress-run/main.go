// Command impress-run executes protein-design campaigns through the
// campaign engine — the adaptive IM-RP protocol or the CONT-V baseline —
// over the paper's PDZ workloads and prints the outcome. A single
// campaign rejects -seeds and the tenancy flags, which only -scenario
// runs honour.
//
// Examples:
//
//	impress-run -protocol imrp
//	impress-run -protocol contv -seed 7
//	impress-run -protocol imrp -targets screen -screen-size 24 -csv iters.csv
//	impress-run -protocol imrp -cycles 6 -sequences 16 -max-concurrent 2
//	impress-run -protocol imrp -pilots split
//	impress-run -protocol imrp -policy bestfit
//	impress-run -protocol imrp -fault 0.15 -recovery retry
//	impress-run -protocol imrp -pilots split -nodes 4 -steer greedy
//	impress-run -scenario elastic-screen -seeds 4 -parallel 8 -csv elastic.csv
//	impress-run -scenario sweep -seeds 12 -parallel 4
//	impress-run -scenario stress -seeds 4 -screen-size 16 -parallel 8
//	impress-run -scenario policy-compare -seeds 4 -parallel 8
//	impress-run -scenario fault-sweep -seeds 4 -parallel 8 -mtbf 12h -csv resilience.csv
//	impress-run -scenario chaos-sweep -seeds 2 -parallel 8 -csv chaos.csv
//	impress-run -scenario mega-screen -cpuprofile cpu.prof -memprofile mem.prof
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"impress"
	"impress/internal/campaign"
	"impress/internal/cliflags"
	"impress/internal/report"
	"impress/internal/scenariorun"
)

func main() {
	os.Exit(run())
}

// run returns the process exit code instead of calling os.Exit directly,
// so deferred cleanup — notably the -cpuprofile/-memprofile writers —
// always executes.
func run() int {
	common := cliflags.Register(flag.CommandLine, cliflags.Options{
		SeedDefault:     42,
		ParallelDefault: 1,
		WithPilots:      true,
	})
	protocol := flag.String("protocol", "imrp", "protocol: imrp (adaptive) or contv (control)")
	scenario := flag.String("scenario", "", "run a registered scenario instead of a single campaign (pair, sweep, screen, stress); -list-scenarios shows all")
	listScenarios := flag.Bool("list-scenarios", false, "list registered scenarios and exit")
	targetsKind := flag.String("targets", "named", "workload: named (4 PDZ domains) or screen")
	screenSize := flag.Int("screen-size", 70, "screen workload size (also the scenario Targets parameter)")
	seeds := flag.Int("seeds", 8, "scenario sweep width (multi-seed scenarios)")
	cycles := flag.Int("cycles", 0, "override design cycles per pipeline (0 = protocol default)")
	sequences := flag.Int("sequences", 0, "override MPNN sequences per cycle (0 = default)")
	retries := flag.Int("retries", -1, "override Stage-6 alternate retries (-1 = default)")
	maxConcurrent := flag.Int("max-concurrent", 0, "cap concurrently active pipelines (0 = unlimited)")
	noSubs := flag.Bool("no-subs", false, "disable dynamic sub-pipeline generation")
	noFinalAdaptive := flag.Bool("no-final-adaptive", false, "disable adaptivity in the final cycle (Fig. 3 setup)")
	csvPath := flag.String("csv", "", "write per-iteration metric CSV to this path")
	jsonPath := flag.String("json", "", "write the full campaign result as JSON to this path")
	pdbDir := flag.String("pdb-dir", "", "write the best design per target as PDB files into this directory")
	events := flag.Bool("events", false, "print the campaign event log")
	gantt := flag.Int("gantt", 0, "print a task-timeline Gantt chart with up to N rows")
	verbose := flag.Bool("v", false, "also print per-trajectory details")
	flag.Parse()

	if *listScenarios {
		for _, s := range impress.Scenarios() {
			fmt.Printf("%-14s %s\n", s.Name, s.Description)
		}
		return 0
	}

	if err := common.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	// 0 (and -1 for -retries) selects a default; a count below that is a
	// usage error, not another way to ask for the default.
	for _, c := range []struct {
		name       string
		val, floor int
	}{
		{"seeds", *seeds, 0},
		{"screen-size", *screenSize, 0},
		{"cycles", *cycles, 0},
		{"sequences", *sequences, 0},
		{"retries", *retries, -1},
		{"max-concurrent", *maxConcurrent, 0},
		{"gantt", *gantt, 0},
	} {
		if c.val < c.floor {
			fmt.Fprintf(os.Stderr, "-%s %d: must be %d or more\n", c.name, c.val, c.floor)
			return 2
		}
	}
	stopProfiles, err := common.StartProfiles()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	defer stopProfiles()
	p := common.Params()
	p.Seeds = *seeds
	p.Targets = *screenSize

	if *scenario != "" {
		// Scenarios are self-contained campaign declarations: every
		// execution knob applies, but the single-campaign tuning and
		// output flags this command declares do not. -csv is honoured
		// exactly when the scenario declares a CSV report.
		if sc, known := impress.LookupScenario(*scenario); known {
			err := common.Reject("-scenario "+*scenario+" runs", func(name string) bool {
				switch name {
				case "scenario", "seeds", "screen-size":
					return true
				case "csv":
					return sc.ReportCSV != nil
				}
				return common.Shared(name)
			})
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 2
			}
		}
		return scenariorun.Run(os.Stdout, os.Stderr, *scenario, p, common.Parallel, *csvPath, common.ChromeTrace)
	}

	// A single campaign honours every flag but the multi-seed sweep width
	// and the tenancy flags, which only scenarios consume.
	err = common.Reject("single-campaign runs (use -scenario)", func(name string) bool {
		return name != "seeds" && !cliflags.Tenancy(name)
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	// The protocol config fully encodes the execution policy here
	// (ControlConfig is already sequential and non-adaptive), and flags
	// may override any part of it — so the campaign is submitted without
	// Control, which would re-force the control policy over the overrides.
	var cfg impress.Config
	switch *protocol {
	case "imrp":
		cfg = impress.AdaptiveConfig(p.Seed)
	case "contv":
		cfg = impress.ControlConfig(p.Seed)
	default:
		fmt.Fprintf(os.Stderr, "unknown protocol %q (want imrp or contv)\n", *protocol)
		return 2
	}
	cfg, err = campaign.Configure(cfg, p)
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
	common.PrintWarnings(os.Stderr)
	if *cycles > 0 {
		cfg.Pipeline.Cycles = *cycles
	}
	if *sequences > 0 {
		cfg.Pipeline.MPNN.NumSequences = *sequences
	}
	if *retries >= 0 {
		cfg.Pipeline.MaxRetries = *retries
	}
	if *maxConcurrent > 0 {
		cfg.MaxConcurrent = *maxConcurrent
	}
	if *noSubs {
		cfg.Sub.Enabled = false
	}
	if *noFinalAdaptive {
		cfg.Pipeline.FinalCycleAdaptive = false
	}

	var targets []*impress.Target
	switch *targetsKind {
	case "named":
		targets, err = impress.NamedPDZTargets(p.Seed)
	case "screen":
		targets, err = impress.PDZScreen(p.Seed, *screenSize)
	default:
		fmt.Fprintf(os.Stderr, "unknown workload %q (want named or screen)\n", *targetsKind)
		return 2
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	c := impress.Campaign{
		Name:    fmt.Sprintf("%s/seed%d", *protocol, p.Seed),
		Seed:    p.Seed,
		Targets: targets,
		Config:  cfg,
	}
	if *events {
		c.EventCapacity = 16384
	}
	out := impress.RunCampaigns([]impress.Campaign{c}, 1)[0]
	if out.Err != nil {
		fmt.Fprintln(os.Stderr, out.Err)
		return 1
	}
	res := out.Result
	fmt.Println(impress.Summary(res))
	if f := res.Faults; f != nil {
		fmt.Printf("faults: %d task, %d node-crash (%d crashes), %d walltime; %d resubmitted, %d terminal, %d pipelines lost; goodput %.1f%%\n",
			f.TaskFaults, f.NodeCrashKills, f.NodeCrashes, f.WalltimeKills,
			f.Resubmissions, f.TerminalFailures, f.KilledPipelines, 100*res.Goodput())
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
	if *verbose {
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
	if out.Events != nil {
		fmt.Println("\nevent log:")
		for _, e := range out.Events.Drain() {
			fmt.Println(" ", e)
		}
		if n := out.Events.Dropped(); n > 0 {
			fmt.Printf("  (%d events dropped)\n", n)
		}
	}
	if *gantt > 0 {
		fmt.Println()
		fmt.Print(impress.Gantt(res, *gantt))
	}
	if common.ChromeTrace != "" {
		err := impress.WriteArtifact(common.ChromeTrace, func(w io.Writer) error {
			return impress.WriteChromeTrace(w, []*impress.Result{res}, []string{c.Name})
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Printf("\nwrote %s\n", common.ChromeTrace)
		fmt.Println()
		fmt.Print(impress.CriticalPathReport(res))
	}
	if *jsonPath != "" {
		err := impress.WriteArtifact(*jsonPath, func(w io.Writer) error {
			return impress.WriteResultJSON(w, res, true)
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Printf("\nwrote %s\n", *jsonPath)
	}
	if *pdbDir != "" {
		// WriteDesignPDBs emits targets in sorted name order, so the files
		// and these log lines are deterministic run to run.
		paths, err := impress.WriteDesignPDBs(*pdbDir, res)
		for _, path := range paths {
			fmt.Printf("wrote %s\n", path)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	if *csvPath != "" {
		err := impress.WriteArtifact(*csvPath, func(w io.Writer) error {
			return report.IterationCSV(w, res.Iterations(), res)
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Printf("\nwrote %s\n", *csvPath)
	}
	return 0
}
