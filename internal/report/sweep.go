package report

import (
	"cmp"
	"fmt"
	"io"
	"strings"

	"impress/internal/core"
	"impress/internal/stats"
)

// seedPair is one seed of the pair sweep: its CONT-V and IM-RP runs.
type seedPair struct {
	seed       uint64
	ctrl, adpt *core.Result
}

// seedPairs pairs the results by seed and approach, in seed order. A
// seed missing either side (a failed campaign) is left out.
func seedPairs(results []*core.Result) []seedPair {
	var pairs []seedPair
	for _, c := range groupBy(results, func(r *core.Result) (uint64, bool) { return r.Seed, true }, cmp.Compare[uint64]) {
		p := seedPair{seed: c.key}
		for _, r := range c.runs {
			switch r.Approach {
			case "CONT-V":
				p.ctrl = r
			case "IM-RP":
				p.adpt = r
			}
		}
		if p.ctrl != nil && p.adpt != nil {
			pairs = append(pairs, p)
		}
	}
	return pairs
}

// sweepStat is one distribution line of the sweep report: a metric of
// one side of each seed's pair.
type sweepStat struct {
	name   string
	adpt   bool
	metric func(*core.Result) float64
}

func netPLDDT(r *core.Result) float64 { return r.NetDelta(core.PLDDTOf) }

// sweepStats are the distribution lines every sweep report prints, and
// faultStats the ones it adds when the campaigns injected faults.
var (
	sweepStats = []sweepStat{
		{"CONT-V Δ pLDDT", false, netPLDDT},
		{"IM-RP Δ pLDDT", true, netPLDDT},
		{"CONT-V Δ pTM", false, func(r *core.Result) float64 { return r.NetDelta(core.PTMOf) }},
		{"IM-RP Δ pTM", true, func(r *core.Result) float64 { return r.NetDelta(core.PTMOf) }},
		{"CONT-V CPU util", false, func(r *core.Result) float64 { return r.CPUUtilization }},
		{"IM-RP CPU util", true, func(r *core.Result) float64 { return r.CPUUtilization }},
		{"CONT-V GPU util", false, func(r *core.Result) float64 { return r.GPUUtilization }},
		{"IM-RP GPU util", true, func(r *core.Result) float64 { return r.GPUUtilization }},
		{"IM-RP sub-pipelines", true, func(r *core.Result) float64 { return float64(r.SubPipelines) }},
		{"IM-RP trajectories", true, func(r *core.Result) float64 { return float64(r.TrajectoryCount()) }},
	}
	faultStats = []sweepStat{
		{"IM-RP goodput", true, (*core.Result).Goodput},
		{"IM-RP killed pipelines", true, func(r *core.Result) float64 { return float64(r.Faults.KilledPipelines) }},
	}
)

// Sweep renders the CONT-V vs IM-RP pair across seeds, the statistical
// robustness check behind Table I's single-seed numbers: a line per
// seed, the distribution of each outcome over the seeds, and the number
// of seeds in which IM-RP gains more pLDDT. Only seeds where both
// campaigns completed count.
func Sweep(results []*core.Result) string {
	pairs := seedPairs(results)
	if len(pairs) == 0 {
		return "sweep needs a seed where both CONT-V and IM-RP completed; none did\n"
	}
	var sb strings.Builder
	wins := 0
	for _, p := range pairs {
		fmt.Fprintf(&sb, "seed %d: Δ pLDDT CONT-V %+.2f vs IM-RP %+.2f; GPU %.1f%% vs %.1f%%; traj %d vs %d; sub-PL %d\n",
			p.seed, netPLDDT(p.ctrl), netPLDDT(p.adpt),
			p.ctrl.GPUUtilization*100, p.adpt.GPUUtilization*100,
			p.ctrl.TrajectoryCount(), p.adpt.TrajectoryCount(), p.adpt.SubPipelines)
		if netPLDDT(p.adpt) > netPLDDT(p.ctrl) {
			wins++
		}
	}
	describe := func(lines []sweepStat) {
		for _, st := range lines {
			xs := make([]float64, len(pairs))
			for i, p := range pairs {
				r := p.ctrl
				if st.adpt {
					r = p.adpt
				}
				xs[i] = st.metric(r)
			}
			d := stats.Describe(xs)
			fmt.Fprintf(&sb, "  %-24s median %8.3f  mean %8.3f  σ %7.3f  [%.3f, %.3f]\n",
				st.name, d.Median, d.Mean, d.StdDev, d.Min, d.Max)
		}
	}
	fmt.Fprintf(&sb, "\nsweep over %d seeds:\n", len(pairs))
	describe(sweepStats)
	fmt.Fprintf(&sb, "  IM-RP beats CONT-V on Δ pLDDT in %d/%d seeds\n", wins, len(pairs))
	if pairs[0].adpt.Faults != nil {
		describe(faultStats)
	}
	return sb.String()
}

// SweepCSV writes the pair sweep's rows: CONT-V then IM-RP at each seed
// where both completed.
func SweepCSV(w io.Writer, results []*core.Result) error {
	if _, err := fmt.Fprintln(w, "seed,approach,dplddt,dptm,dipae,cpu_util,gpu_util,trajectories,sub_pipelines,aggregate_h,makespan_h,goodput"); err != nil {
		return err
	}
	for _, p := range seedPairs(results) {
		for _, r := range []*core.Result{p.ctrl, p.adpt} {
			if _, err := fmt.Fprintf(w, "%d,%s,%.4f,%.4f,%.4f,%.4f,%.4f,%d,%d,%.3f,%.3f,%.4f\n",
				p.seed, r.Approach,
				netPLDDT(r), r.NetDelta(core.PTMOf), r.NetDelta(core.IPAEOf),
				r.CPUUtilization, r.GPUUtilization,
				r.TrajectoryCount(), r.SubPipelines,
				r.AggregateTaskTime.Hours(), r.Makespan.Hours(), r.Goodput()); err != nil {
				return err
			}
		}
	}
	return nil
}
