package report

import (
	"cmp"
	"fmt"
	"io"
	"strings"

	"impress/internal/core"
	"impress/internal/stats"
)

// tenantSlowdowns extracts the per-tenant slowdown vector of one
// multi-tenant service result.
func tenantSlowdowns(r *core.Result) []float64 {
	out := make([]float64, 0, len(r.Tenants))
	for _, ts := range r.Tenants {
		out = append(out, ts.Slowdown)
	}
	return out
}

// JainOf returns Jain's fairness index over a service result's per-tenant
// slowdowns: 1 when the shared cluster stretched every tenant equally,
// approaching 1/n when admission control sacrificed some tenants to
// others. A single-tenant service is trivially fair (1).
func JainOf(r *core.Result) float64 {
	return stats.JainIndex(tenantSlowdowns(r))
}

// Fairness renders the multi-tenant admission comparison: one row per
// admission policy, aggregated over seeds. The columns are the
// multi-tenancy levers — Jain's fairness index over per-tenant slowdowns,
// the slowdown distribution (median / p90 / max), admission wait, and
// reclaim traffic — plus aggregate makespan, so a policy that buys
// fairness by stalling the whole fleet shows up immediately.
func Fairness(results []*core.Result) string {
	// Plain campaigns carry no tenant records and form no cell.
	cells := groupBy(results, func(r *core.Result) (string, bool) {
		return cmp.Or(r.Admission, "fcfs-admit"), len(r.Tenants) > 0
	}, strings.Compare)

	t := NewTable("Admission", "Runs", "Tenants", "Jain", "Slowdown p50", "p90", "max",
		"Wait (h)", "Makespan (h)", "Reclaims")
	for _, c := range cells {
		rs := c.runs
		var slowdowns, waits []float64
		tenants, reclaims := 0, 0
		for _, r := range rs {
			tenants += len(r.Tenants)
			for _, ts := range r.Tenants {
				slowdowns = append(slowdowns, ts.Slowdown)
				waits = append(waits, ts.Wait.Hours())
				reclaims += ts.Reclaimed
			}
		}
		t.AddRow(
			c.key,
			fmt.Sprintf("%d", len(rs)),
			fmt.Sprintf("%d", tenants),
			fmt.Sprintf("%.3f", median(rs, JainOf)),
			fmt.Sprintf("%.2f", stats.Quantile(slowdowns, 0.5)),
			fmt.Sprintf("%.2f", stats.Quantile(slowdowns, 0.9)),
			fmt.Sprintf("%.2f", stats.Max(slowdowns)),
			fmt.Sprintf("%.2f", stats.Mean(waits)),
			fmt.Sprintf("%.2f", median(rs, makespanHours)),
			fmt.Sprintf("%d", reclaims),
		)
	}
	var sb strings.Builder
	sb.WriteString("Multi-tenant fairness comparison (Jain's index over per-tenant slowdowns;\n")
	sb.WriteString("medians over seeds, waits averaged over tenants, reclaims summed)\n")
	sb.WriteString(t.String())
	return sb.String()
}

// FairnessCSV writes one row per tenant per service run — the
// machine-readable companion of Fairness, with the service-level Jain
// index repeated on each of its tenant rows.
func FairnessCSV(w io.Writer, results []*core.Result) error {
	if _, err := fmt.Fprintln(w, "admission,seed,jain,tenant,weight,nodes,arrived_h,admitted_h,finished_h,"+
		"wait_h,runtime_h,slowdown,trajectories,tasks,reclaimed,granted,makespan_h"); err != nil {
		return err
	}
	for _, r := range results {
		if r == nil || len(r.Tenants) == 0 {
			continue
		}
		jain := JainOf(r)
		for _, ts := range r.Tenants {
			if _, err := fmt.Fprintf(w, "%s,%d,%.4f,%s,%.2f,%d,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f,%d,%d,%d,%d,%.4f\n",
				r.Admission, r.Seed, jain, ts.Name, ts.Weight, ts.Nodes,
				ts.Arrived.Hours(), ts.Admitted.Hours(), ts.Finished.Hours(),
				ts.Wait.Hours(), ts.Runtime.Hours(), ts.Slowdown,
				ts.Trajectories, ts.Tasks, ts.Reclaimed, ts.Granted,
				r.Makespan.Hours()); err != nil {
				return err
			}
		}
	}
	return nil
}
