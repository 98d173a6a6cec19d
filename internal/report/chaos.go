package report

import (
	"cmp"
	"fmt"
	"io"
	"sort"
	"strings"

	"impress/internal/core"
)

// chaosKey identifies one cell of the chaos grid: a recovery policy
// paired with a steering policy, racing the same correlated-failure
// schedule.
type chaosKey struct {
	recovery string
	steer    string
}

// Chaos renders the chaos-sweep comparison: one row per (recovery,
// steering) pair, aggregated over seeds, against the fault-free
// baselines of the same seeds. Where the resilience report varies the
// failure rate, this one holds the failure models fixed — per-node
// crashes plus correlated domain outages, cascades, and maintenance —
// and races the two levers a campaign owner actually controls under
// correlated failures: how tasks recover and whether capacity is
// steered around the holes.
func Chaos(results []*core.Result) string {
	base := baselinesOf(results, faultFree, false)
	cells := groupBy(results, func(r *core.Result) (chaosKey, bool) {
		if r.Faults == nil {
			return chaosKey{}, false
		}
		return chaosKey{r.Faults.Recovery, r.SteerLabel()}, true
	}, func(a, b chaosKey) int {
		return cmp.Or(cmp.Compare(a.recovery, b.recovery), cmp.Compare(a.steer, b.steer))
	})

	t := NewTable("Recovery", "Steer", "Runs", "Goodput %", "Makespan (h)", "Inflation ×",
		"Crashes", "Outages", "Maint", "Downtime node-h", "Transfers", "Killed PL")
	for _, c := range cells {
		rs := c.runs
		crashes, outages, maints, transfers, killed := 0, 0, 0, 0, 0
		var downtime float64
		for _, r := range rs {
			crashes += r.Faults.NodeCrashes
			outages += r.Faults.DomainOutages
			maints += r.Faults.MaintenanceWindows
			downtime += r.Faults.DowntimeNodeSeconds
			transfers += r.NodeTransfers
			killed += r.Faults.KilledPipelines
		}
		t.AddRow(
			c.key.recovery,
			c.key.steer,
			fmt.Sprintf("%d", len(rs)),
			fmt.Sprintf("%.1f", 100*median(rs, (*core.Result).Goodput)),
			fmt.Sprintf("%.2f", median(rs, makespanHours)),
			base.cell(rs, "%.2f"),
			fmt.Sprintf("%d", crashes),
			fmt.Sprintf("%d", outages),
			fmt.Sprintf("%d", maints),
			fmt.Sprintf("%.2f", downtime/3600),
			fmt.Sprintf("%d", transfers),
			fmt.Sprintf("%d", killed),
		)
	}

	var sb strings.Builder
	sb.WriteString("Chaos comparison: recovery × steering under correlated failures (medians over seeds; counts summed)\n")
	if len(base.hours) == 0 {
		sb.WriteString("(no fault-free baseline runs: makespan inflation unavailable)\n")
	}
	sb.WriteString(t.String())
	if domains := domainCrashLabel(results); domains != "" {
		sb.WriteString("Crashes by domain (all cells): " + domains + "\n")
	}
	return sb.String()
}

// domainCrashLabel sums per-domain crash counts across all fault runs
// and renders them "rackA×12 rackB×7 (unlabeled)×3", sorted by domain.
func domainCrashLabel(results []*core.Result) string {
	total := make(map[string]int)
	for _, r := range results {
		if r == nil || r.Faults == nil {
			continue
		}
		for dom, n := range r.Faults.DomainCrashes {
			total[dom] += n
		}
	}
	if len(total) == 0 {
		return ""
	}
	doms := make([]string, 0, len(total))
	for d := range total {
		doms = append(doms, d)
	}
	sort.Strings(doms)
	parts := make([]string, 0, len(doms))
	for _, d := range doms {
		label := d
		if label == "" {
			label = "(unlabeled)"
		}
		parts = append(parts, fmt.Sprintf("%s×%d", label, total[d]))
	}
	return strings.Join(parts, " ")
}

// ChaosCSV writes one row per campaign (baselines with empty fault
// columns) — the machine-readable companion of Chaos.
func ChaosCSV(w io.Writer, results []*core.Result) error {
	if _, err := fmt.Fprintln(w, "recovery,steer,seed,approach,goodput,makespan_h,inflation,"+
		"node_crashes,domain_outages,maintenance_windows,downtime_node_s,transfers,"+
		"killed_pipelines,resubmissions,terminal_failures"); err != nil {
		return err
	}
	base := baselinesOf(results, faultFree, false)
	for _, r := range results {
		if r == nil {
			continue
		}
		if r.Faults == nil {
			if _, err := fmt.Fprintf(w, "baseline,%s,%d,%s,%.4f,%.4f,1,0,0,0,0,%d,0,0,0\n",
				r.SteerLabel(), r.Seed, r.Approach, r.Goodput(), r.Makespan.Hours(), r.NodeTransfers); err != nil {
				return err
			}
			continue
		}
		f := r.Faults
		if _, err := fmt.Fprintf(w, "%s,%s,%d,%s,%.4f,%.4f,%s,%d,%d,%d,%.1f,%d,%d,%d,%d\n",
			f.Recovery, r.SteerLabel(), r.Seed, r.Approach, r.Goodput(), r.Makespan.Hours(),
			base.csv(r), f.NodeCrashes, f.DomainOutages, f.MaintenanceWindows,
			f.DowntimeNodeSeconds, r.NodeTransfers, f.KilledPipelines,
			f.Resubmissions, f.TerminalFailures); err != nil {
			return err
		}
	}
	return nil
}
