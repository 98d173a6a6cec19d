package report

import (
	"fmt"
	"io"
	"strings"

	"impress/internal/core"
)

// PolicyCompare renders the scheduling-policy comparison: one row per
// policy, aggregating every campaign that ran under it (typically a seed
// sweep from the policy-compare scenario). The columns are the
// scheduler's levers — makespan, queue wait, utilization — plus the
// science outcome (trajectories, net pLDDT) so a policy that goes fast by
// starving the protocol shows up immediately.
func PolicyCompare(results []*core.Result) string {
	cells := groupBy(results, func(r *core.Result) (string, bool) { return r.PolicyLabel(), true }, strings.Compare)

	t := NewTable("Policy", "Campaigns", "Makespan (h)", "Queue wait", "Max wait",
		"CPU %", "GPU %", "Traj", "ΔpLDDT")
	for _, c := range cells {
		rs := c.runs
		meanWait, maxWait := queueWaits(rs)
		t.AddRow(
			c.key,
			fmt.Sprintf("%d", len(rs)),
			fmt.Sprintf("%.2f", median(rs, makespanHours)),
			meanWait,
			maxWait,
			fmt.Sprintf("%.1f", 100*median(rs, func(r *core.Result) float64 { return r.CPUUtilization })),
			fmt.Sprintf("%.1f", 100*median(rs, func(r *core.Result) float64 { return r.GPUUtilization })),
			fmt.Sprintf("%.1f", median(rs, func(r *core.Result) float64 { return float64(r.TrajectoryCount()) })),
			fmt.Sprintf("%+.2f", median(rs, func(r *core.Result) float64 { return r.NetDelta(core.PLDDTOf) })),
		)
	}
	var sb strings.Builder
	sb.WriteString("Scheduling-policy comparison (medians over campaigns; waits averaged)\n")
	sb.WriteString(t.String())
	return sb.String()
}

// PolicyCompareCSV writes the per-campaign policy comparison rows.
func PolicyCompareCSV(w io.Writer, results []*core.Result) error {
	if _, err := fmt.Fprintln(w, "policy,approach,makespan_h,queue_wait_mean_m,queue_wait_max_m,cpu_util,gpu_util,trajectories,dplddt"); err != nil {
		return err
	}
	for _, r := range results {
		if r == nil {
			continue
		}
		mean, max := r.QueueWait()
		if _, err := fmt.Fprintf(w, "%s,%s,%.4f,%.4f,%.4f,%.4f,%.4f,%d,%.4f\n",
			r.PolicyLabel(), r.Approach, r.Makespan.Hours(), mean.Minutes(), max.Minutes(),
			r.CPUUtilization, r.GPUUtilization, r.TrajectoryCount(), r.NetDelta(core.PLDDTOf)); err != nil {
			return err
		}
	}
	return nil
}
