// Command impress-sweep runs the CONT-V vs IM-RP comparison across many
// seeds and reports the distribution of outcomes — the statistical
// robustness check behind the single-seed numbers of Table I.
//
// Seeds run concurrently on the campaign engine's worker pool; campaigns
// are hermetically seeded, so results are identical at any -parallel
// setting. A failing seed is reported and skipped — completed rows are
// kept, still summarized, and still written to CSV — but the process
// always exits non-zero when any seed failed. The pair sweep rejects
// -fleet and the tenancy flags, which only -scenario runs honour.
//
//	impress-sweep -seeds 10
//	impress-sweep -seeds 20 -parallel 8 -csv sweep.csv
//	impress-sweep -seeds 10 -pilots split
//	impress-sweep -seeds 10 -pilots split -nodes 4 -steer greedy
//	impress-sweep -seeds 10 -policy bestfit
//	impress-sweep -seeds 10 -fault 0.1 -recovery backoff
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"impress"
	"impress/internal/cliflags"
	"impress/internal/scenariorun"
	"impress/internal/stats"
)

type row struct {
	seed       uint64
	ctrl, adpt *impress.Result
}

func main() {
	os.Exit(run())
}

// run keeps the exit policy in one place: non-zero whenever any seed
// failed to build or execute, even though completed rows are always
// summarized and written.
func run() int {
	common := cliflags.Register(flag.CommandLine, cliflags.Options{
		SeedName:    "first-seed",
		SeedDefault: 100,
		SeedUsage:   "first seed of the sweep",
		WithPilots:  true,
	})
	nSeeds := flag.Int("seeds", 8, "number of seeds to sweep")
	csvPath := flag.String("csv", "", "write per-seed results as CSV")
	scenario := flag.String("scenario", "",
		"run a registered campaign scenario (screen, stress, mega-screen, …) instead of the pair sweep; statistics below apply to the pair sweep only")
	flag.Parse()

	if err := common.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if *nSeeds < 0 {
		fmt.Fprintf(os.Stderr, "-seeds %d: must be 0 or more\n", *nSeeds)
		return 2
	}
	stopProfiles, err := common.StartProfiles()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	defer stopProfiles()
	params := common.Params()
	params.Seeds = *nSeeds

	if *scenario != "" {
		return scenariorun.Run(os.Stdout, os.Stderr, *scenario, params, common.Parallel, *csvPath, common.ChromeTrace)
	}
	// The pair sweep runs on each protocol's own machine: neither the
	// tenancy flags nor -fleet reach its campaigns.
	err = common.Reject("the pair sweep (use -scenario)", func(name string) bool {
		return name != "fleet" && !cliflags.Tenancy(name)
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	common.PrintWarnings(os.Stderr)

	// The sweep scenario is the CONT-V/IM-RP pair at each seed.
	campaigns, err := impress.BuildScenario("sweep", params)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	outs := impress.RunCampaigns(campaigns, common.Parallel)

	// Collect per-seed rows, keeping every completed pair even when other
	// seeds failed.
	var rows []row
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
		fmt.Printf("seed %d: Δ pLDDT CONT-V %+.2f vs IM-RP %+.2f; GPU %.1f%% vs %.1f%%; traj %d vs %d; sub-PL %d\n",
			seed, r.ctrl.NetDelta(impress.PLDDT), r.adpt.NetDelta(impress.PLDDT),
			r.ctrl.GPUUtilization*100, r.adpt.GPUUtilization*100,
			r.ctrl.TrajectoryCount(), r.adpt.TrajectoryCount(), r.adpt.SubPipelines)
	}
	if len(rows) == 0 {
		fmt.Fprintln(os.Stderr, "no seeds completed")
		return 1
	}

	collect := func(f func(r row) float64) []float64 {
		out := make([]float64, len(rows))
		for i, r := range rows {
			out[i] = f(r)
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

	if *csvPath != "" {
		err := impress.WriteArtifact(*csvPath, func(w io.Writer) error {
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
		fmt.Printf("\nwrote %s\n", *csvPath)
	}

	if common.ChromeTrace != "" {
		var results []*impress.Result
		var labels []string
		for _, r := range rows {
			results = append(results, r.ctrl, r.adpt)
			labels = append(labels,
				fmt.Sprintf("contv/seed%d", r.seed), fmt.Sprintf("imrp/seed%d", r.seed))
		}
		err := impress.WriteArtifact(common.ChromeTrace, func(w io.Writer) error {
			return impress.WriteChromeTrace(w, results, labels)
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Printf("\nwrote %s\n", common.ChromeTrace)
	}

	if failures > 0 {
		fmt.Fprintf(os.Stderr, "\n%d seed(s) failed; %d completed rows kept\n", failures, len(rows))
		return 1
	}
	return 0
}
