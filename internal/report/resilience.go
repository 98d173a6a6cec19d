package report

import (
	"cmp"
	"fmt"
	"io"
	"sort"
	"strings"

	"impress/internal/core"
)

// resilienceKey identifies one cell of the fault-sweep grid: a recovery
// policy racing at one failure rate.
type resilienceKey struct {
	recovery string
	rate     float64
}

// Resilience renders the fault-sweep comparison: one row per (recovery
// policy, failure rate) cell, aggregated over seeds, against the
// fault-free baselines of the same seeds. The columns are the resilience
// levers — goodput, wasted allocation, makespan inflation, pipeline
// survival — plus the attempts histogram that shows how hard recovery
// had to work.
func Resilience(results []*core.Result) string {
	base := baselinesOf(results, faultFree, false)
	cells := groupBy(results, func(r *core.Result) (resilienceKey, bool) {
		if r.Faults == nil {
			return resilienceKey{}, false
		}
		return resilienceKey{r.Faults.Recovery, r.Faults.Spec.TaskFailProb}, true
	}, func(a, b resilienceKey) int {
		return cmp.Or(cmp.Compare(a.recovery, b.recovery), cmp.Compare(a.rate, b.rate))
	})

	t := NewTable("Recovery", "Fail rate", "Runs", "Goodput %", "Makespan (h)", "Inflation ×",
		"Killed PL", "Resub", "Term", "Wasted core-h", "Downtime node-h", "Attempts")
	for _, c := range cells {
		rs := c.runs
		killed, resub, term := 0, 0, 0
		hist := make(map[int]int)
		var downtime float64
		for _, r := range rs {
			killed += r.Faults.KilledPipelines
			resub += r.Faults.Resubmissions
			term += r.Faults.TerminalFailures
			downtime += r.Faults.DowntimeNodeSeconds
			for a, n := range r.Faults.AttemptsHistogram {
				hist[a] += n
			}
		}
		t.AddRow(
			c.key.recovery,
			fmt.Sprintf("%.2f", c.key.rate),
			fmt.Sprintf("%d", len(rs)),
			fmt.Sprintf("%.1f", 100*median(rs, (*core.Result).Goodput)),
			fmt.Sprintf("%.2f", median(rs, makespanHours)),
			base.cell(rs, "%.2f"),
			fmt.Sprintf("%d", killed),
			fmt.Sprintf("%d", resub),
			fmt.Sprintf("%d", term),
			fmt.Sprintf("%.1f", median(rs, func(r *core.Result) float64 { return r.Faults.WastedCoreHours })),
			fmt.Sprintf("%.2f", downtime/3600),
			attemptsLabel(hist),
		)
	}

	var sb strings.Builder
	sb.WriteString("Resilience comparison (medians over seeds; counts summed)\n")
	if len(base.hours) == 0 {
		sb.WriteString("(no fault-free baseline runs: makespan inflation unavailable)\n")
	}
	sb.WriteString(t.String())
	return sb.String()
}

// attemptsLabel renders an attempts histogram compactly: "1×37 2×5 3×1".
func attemptsLabel(hist map[int]int) string {
	if len(hist) == 0 {
		return "-"
	}
	attempts := make([]int, 0, len(hist))
	for a := range hist {
		attempts = append(attempts, a)
	}
	sort.Ints(attempts)
	parts := make([]string, 0, len(attempts))
	for _, a := range attempts {
		parts = append(parts, fmt.Sprintf("%d×%d", a, hist[a]))
	}
	return strings.Join(parts, " ")
}

// ResilienceCSV writes one row per fault-injected campaign (and one per
// baseline, with empty fault columns) — the machine-readable companion
// of Resilience.
func ResilienceCSV(w io.Writer, results []*core.Result) error {
	if _, err := fmt.Fprintln(w, "recovery,fail_rate,seed,approach,goodput,makespan_h,inflation,"+
		"killed_pipelines,resubmissions,terminal_failures,task_faults,node_crashes,"+
		"wasted_core_h,downtime_node_s,max_attempts"); err != nil {
		return err
	}
	base := baselinesOf(results, faultFree, false)
	for _, r := range results {
		if r == nil {
			continue
		}
		if r.Faults == nil {
			if _, err := fmt.Fprintf(w, "baseline,0,%d,%s,%.4f,%.4f,1,0,0,0,0,0,0,0,1\n",
				r.Seed, r.Approach, r.Goodput(), r.Makespan.Hours()); err != nil {
				return err
			}
			continue
		}
		f := r.Faults
		if _, err := fmt.Fprintf(w, "%s,%.4f,%d,%s,%.4f,%.4f,%s,%d,%d,%d,%d,%d,%.4f,%.1f,%d\n",
			f.Recovery, f.Spec.TaskFailProb, r.Seed, r.Approach, r.Goodput(), r.Makespan.Hours(),
			base.csv(r), f.KilledPipelines, f.Resubmissions, f.TerminalFailures, f.TaskFaults,
			f.NodeCrashes, f.WastedCoreHours, f.DowntimeNodeSeconds, f.MaxAttempts()); err != nil {
			return err
		}
	}
	return nil
}
