package report

import (
	"fmt"
	"slices"
	"time"

	"impress/internal/core"
	"impress/internal/stats"
)

// The sweep comparison reports (PolicyCompare, Resilience, Elastic,
// Chaos, Preemption, Fairness) each declare three things: a cell key
// with its order, a baseline rule, and their columns. Grouping, per-seed
// baselines and the shared aggregates live here, once.

// cell is one row of a comparison report: the runs sharing a key.
type cell[K comparable] struct {
	key  K
	runs []*core.Result
}

// groupBy buckets the non-nil results whose key reports true into cells,
// sorted by order.
func groupBy[K comparable](results []*core.Result, key func(*core.Result) (K, bool), order func(a, b K) int) []cell[K] {
	var cells []cell[K]
	index := make(map[K]int)
	for _, r := range results {
		if r == nil {
			continue
		}
		k, ok := key(r)
		if !ok {
			continue
		}
		i, seen := index[k]
		if !seen {
			i = len(cells)
			index[k] = i
			cells = append(cells, cell[K]{key: k})
		}
		cells[i].runs = append(cells[i].runs, r)
	}
	slices.SortFunc(cells, func(a, b cell[K]) int { return order(a.key, b.key) })
	return cells
}

// baselines maps each seed to the makespan (hours) of its baseline run;
// a later baseline run of a seed replaces an earlier one. A run's ratio
// to its baseline is its inflation (run / baseline), or with speedup set
// the baseline's speedup over it (baseline / run).
type baselines struct {
	hours   map[uint64]float64
	speedup bool
}

// baselinesOf collects the per-seed makespans of the non-nil results
// isBase picks.
func baselinesOf(results []*core.Result, isBase func(*core.Result) bool, speedup bool) baselines {
	b := baselines{hours: make(map[uint64]float64), speedup: speedup}
	for _, r := range results {
		if r != nil && isBase(r) {
			b.hours[r.Seed] = r.Makespan.Hours()
		}
	}
	return b
}

// faultFree is the baseline rule of the fault-injecting sweeps.
func faultFree(r *core.Result) bool { return r.Faults == nil }

// ratio returns r's makespan ratio to its seed's baseline, and false
// when the seed has none or the divisor is not positive.
func (b baselines) ratio(r *core.Result) (float64, bool) {
	base, ok := b.hours[r.Seed]
	num, den := r.Makespan.Hours(), base
	if b.speedup {
		num, den = den, num
	}
	if !ok || den <= 0 {
		return 0, false
	}
	return num / den, true
}

// cell renders the median ratio over rs in format, or "n/a" when no run
// of rs has a baseline.
func (b baselines) cell(rs []*core.Result, format string) string {
	var ratios []float64
	for _, r := range rs {
		if x, ok := b.ratio(r); ok {
			ratios = append(ratios, x)
		}
	}
	if len(ratios) == 0 {
		return "n/a"
	}
	return fmt.Sprintf(format, stats.Median(ratios))
}

// csv renders r's ratio for a CSV row, empty when it has no baseline.
func (b baselines) csv(r *core.Result) string {
	if x, ok := b.ratio(r); ok {
		return fmt.Sprintf("%.4f", x)
	}
	return ""
}

// median returns the median of f over rs.
func median(rs []*core.Result, f func(*core.Result) float64) float64 {
	xs := make([]float64, len(rs))
	for i, r := range rs {
		xs[i] = f(r)
	}
	return stats.Median(xs)
}

// makespanHours is the makespan column every comparison report carries.
func makespanHours(r *core.Result) float64 { return r.Makespan.Hours() }

// queueWaits renders the mean of the runs' mean queue waits and the
// largest single wait of any run, at minute precision.
func queueWaits(rs []*core.Result) (mean, longest string) {
	var sum, top time.Duration
	for _, r := range rs {
		m, x := r.QueueWait()
		sum += m
		top = max(top, x)
	}
	return fmtWait(sum / time.Duration(len(rs))), fmtWait(top)
}

// fmtWait renders a queue-wait duration at minute precision.
func fmtWait(d time.Duration) string {
	return fmt.Sprintf("%.1fm", d.Minutes())
}
