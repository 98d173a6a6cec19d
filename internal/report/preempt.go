package report

import (
	"cmp"
	"fmt"
	"io"
	"strings"
	"time"

	"impress/internal/core"
)

// preemptKey identifies one cell of the preemption grid: a checkpoint
// cadence, a walltime-expiry mode (hard kill vs graceful drain), and a
// steering policy, all racing the same interruption schedule.
type preemptKey struct {
	interval time.Duration
	mode     string
	steer    string
}

// walltimeMode names a run's walltime-expiry mode: "drain" when its
// walltime drains gracefully, else a hard "kill".
func walltimeMode(r *core.Result) string {
	if r.WalltimeGrace > 0 {
		return "drain"
	}
	return "kill"
}

// DurationLabel renders a positive duration compactly, without zero
// trailing units ("15m", "1h30m", "10h", "45s"), and any other as none.
func DurationLabel(d time.Duration, none string) string {
	if d <= 0 {
		return none
	}
	s := d.String()
	if strings.HasSuffix(s, "m0s") {
		s = strings.TrimSuffix(s, "0s")
	}
	if strings.HasSuffix(s, "h0m") {
		s = strings.TrimSuffix(s, "0m")
	}
	return s
}

// Preemption renders the preempt-sweep comparison: one row per
// (checkpoint interval, kill-vs-drain, steering) cell, aggregated over
// seeds, against the fault-free baselines of the same seeds. The
// question the table answers is what interrupted work costs: with
// checkpointing off every eviction restarts its attempt from zero
// (wasted core-hours), while evict-and-resume forfeits only the slice
// past the last checkpoint (preempted core-hours).
func Preemption(results []*core.Result) string {
	base := baselinesOf(results, faultFree, false)
	cells := groupBy(results, func(r *core.Result) (preemptKey, bool) {
		if r.Faults == nil {
			return preemptKey{}, false
		}
		return preemptKey{r.CheckpointInterval, walltimeMode(r), r.SteerLabel()}, true
	}, func(a, b preemptKey) int {
		return cmp.Or(cmp.Compare(a.interval, b.interval),
			cmp.Compare(b.mode, a.mode), // kill before drain
			cmp.Compare(a.steer, b.steer))
	})

	t := NewTable("Ckpt", "Mode", "Steer", "Runs", "Goodput %", "Makespan (h)", "Inflation ×",
		"Wasted core-h", "Preempted core-h", "Evictions", "Resumes", "WT kills", "Transfers", "Killed PL")
	for _, c := range cells {
		rs := c.runs
		evictions, resumes, wtKills, transfers, killed := 0, 0, 0, 0, 0
		var wasted, preempted float64
		for _, r := range rs {
			evictions += r.Faults.Evictions
			resumes += r.Faults.Resumes
			wtKills += r.Faults.WalltimeKills
			transfers += r.NodeTransfers
			killed += r.Faults.KilledPipelines
			wasted += r.Faults.WastedCoreHours
			preempted += r.Faults.PreemptedCoreHours
		}
		t.AddRow(
			DurationLabel(c.key.interval, "off"),
			c.key.mode,
			c.key.steer,
			fmt.Sprintf("%d", len(rs)),
			fmt.Sprintf("%.1f", 100*median(rs, (*core.Result).Goodput)),
			fmt.Sprintf("%.2f", median(rs, makespanHours)),
			base.cell(rs, "%.2f"),
			fmt.Sprintf("%.2f", wasted),
			fmt.Sprintf("%.2f", preempted),
			fmt.Sprintf("%d", evictions),
			fmt.Sprintf("%d", resumes),
			fmt.Sprintf("%d", wtKills),
			fmt.Sprintf("%d", transfers),
			fmt.Sprintf("%d", killed),
		)
	}

	var sb strings.Builder
	sb.WriteString("Preemption comparison: checkpoint cadence × walltime mode × steering (medians over seeds; counts and core-hours summed)\n")
	if len(base.hours) == 0 {
		sb.WriteString("(no fault-free baseline runs: makespan inflation unavailable)\n")
	}
	sb.WriteString(t.String())
	return sb.String()
}

// PreemptionCSV writes one row per campaign (baselines with empty fault
// columns) — the machine-readable companion of Preemption.
func PreemptionCSV(w io.Writer, results []*core.Result) error {
	if _, err := fmt.Fprintln(w, "checkpoint_interval_s,mode,steer,seed,approach,goodput,makespan_h,inflation,"+
		"wasted_core_h,preempted_core_h,evictions,resumes,walltime_kills,transfers,"+
		"killed_pipelines,resubmissions,terminal_failures"); err != nil {
		return err
	}
	base := baselinesOf(results, faultFree, false)
	for _, r := range results {
		if r == nil {
			continue
		}
		if r.Faults == nil {
			if _, err := fmt.Fprintf(w, "baseline,baseline,%s,%d,%s,%.4f,%.4f,1,0,0,0,0,0,%d,0,0,0\n",
				r.SteerLabel(), r.Seed, r.Approach, r.Goodput(), r.Makespan.Hours(), r.NodeTransfers); err != nil {
				return err
			}
			continue
		}
		f := r.Faults
		if _, err := fmt.Fprintf(w, "%.0f,%s,%s,%d,%s,%.4f,%.4f,%s,%.4f,%.4f,%d,%d,%d,%d,%d,%d,%d\n",
			r.CheckpointInterval.Seconds(), walltimeMode(r), r.SteerLabel(), r.Seed, r.Approach,
			r.Goodput(), r.Makespan.Hours(), base.csv(r),
			f.WastedCoreHours, f.PreemptedCoreHours, f.Evictions, f.Resumes,
			f.WalltimeKills, r.NodeTransfers, f.KilledPipelines, f.Resubmissions, f.TerminalFailures); err != nil {
			return err
		}
	}
	return nil
}
