package report

import (
	"fmt"
	"io"
	"strings"

	"impress/internal/core"
)

// Elastic renders the steering comparison: one row per steering policy,
// aggregated over seeds, against the frozen split ("none") of the same
// seeds. The columns are the steering levers — makespan and its speedup
// over the frozen baseline, queue wait, utilization, transfer counts —
// plus the science outcome (trajectories, net pLDDT) so a policy that
// goes fast by starving the protocol shows up immediately.
func Elastic(results []*core.Result) string {
	base := baselinesOf(results, isFrozen, true)
	cells := groupBy(results, func(r *core.Result) (string, bool) { return r.SteerLabel(), true }, strings.Compare)

	t := NewTable("Steer", "Runs", "Makespan (h)", "Speedup ×", "Queue wait", "Max wait",
		"CPU %", "GPU %", "Transfers", "Vetoes", "Traj", "ΔpLDDT")
	for _, c := range cells {
		rs := c.runs
		meanWait, maxWait := queueWaits(rs)
		transfers, vetoes := 0, 0
		for _, r := range rs {
			transfers += r.NodeTransfers
			vetoes += r.SteerVetoes
		}
		t.AddRow(
			c.key,
			fmt.Sprintf("%d", len(rs)),
			fmt.Sprintf("%.2f", median(rs, makespanHours)),
			base.cell(rs, "%.3f"),
			meanWait,
			maxWait,
			fmt.Sprintf("%.1f", 100*median(rs, func(r *core.Result) float64 { return r.CPUUtilization })),
			fmt.Sprintf("%.1f", 100*median(rs, func(r *core.Result) float64 { return r.GPUUtilization })),
			fmt.Sprintf("%d", transfers),
			fmt.Sprintf("%d", vetoes),
			fmt.Sprintf("%.1f", median(rs, func(r *core.Result) float64 { return float64(r.TrajectoryCount()) })),
			fmt.Sprintf("%+.2f", median(rs, func(r *core.Result) float64 { return r.NetDelta(core.PLDDTOf) })),
		)
	}
	var sb strings.Builder
	sb.WriteString("Elastic steering comparison (medians over seeds; waits averaged, transfers summed;\n")
	sb.WriteString("speedup = frozen-split makespan / policy makespan, per seed)\n")
	if len(base.hours) == 0 {
		sb.WriteString("(no frozen-split runs: speedup unavailable)\n")
	}
	sb.WriteString(t.String())
	return sb.String()
}

// isFrozen is the elastic report's baseline rule: the frozen split
// (steer "none"), which also forms a cell of its own, so its row shows
// speedup 1.
func isFrozen(r *core.Result) bool { return r.SteerLabel() == "none" }

// ElasticCSV writes one steering-comparison row per campaign — the
// machine-readable companion of Elastic.
func ElasticCSV(w io.Writer, results []*core.Result) error {
	if _, err := fmt.Fprintln(w, "steer,seed,approach,makespan_h,speedup,queue_wait_mean_m,queue_wait_max_m,"+
		"cpu_util,gpu_util,node_transfers,steer_vetoes,trajectories,dplddt"); err != nil {
		return err
	}
	base := baselinesOf(results, isFrozen, true)
	for _, r := range results {
		if r == nil {
			continue
		}
		mean, max := r.QueueWait()
		if _, err := fmt.Fprintf(w, "%s,%d,%s,%.4f,%s,%.4f,%.4f,%.4f,%.4f,%d,%d,%d,%.4f\n",
			r.SteerLabel(), r.Seed, r.Approach, r.Makespan.Hours(), base.csv(r),
			mean.Minutes(), max.Minutes(), r.CPUUtilization, r.GPUUtilization,
			r.NodeTransfers, r.SteerVetoes, r.TrajectoryCount(), r.NetDelta(core.PLDDTOf)); err != nil {
			return err
		}
	}
	return nil
}
