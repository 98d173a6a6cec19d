// Package trace is a campaign's one recorder. It records what the
// paper's Figures 4 and 5 plot: busy-CPU and busy-GPU time series over a
// campaign, average utilization percentages, and the per-task phase
// breakdown (Bootstrap / Exec setup / Running), plus each pilot's queue
// depth and the task log.
//
// "Busy" is distinct from "allocated": a task may hold a GPU while only
// its CPU phase runs (CONT-V's monolithic AlphaFold task does exactly
// that), and utilization counts only actively used resources — the same
// accounting the paper's monitoring produced.
//
// With telemetry on (EnableTelemetry) the same recorder also keeps the
// observability record (telemetry.go): instant events, steering ticks
// and per-pilot occupancy gauges. Off, those calls return at once and
// allocate nothing.
package trace

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"impress/internal/simclock"
)

// Point is one step of a resource step-function: Value holds from T until
// the next point's T.
type Point struct {
	T     simclock.Time
	Value int
}

// Phase names used across the runtime (Fig. 5 legend).
const (
	PhaseBootstrap = "bootstrap"
	PhaseExecSetup = "exec_setup"
	PhaseRunning   = "running"
)

// TaskRecord is the per-task timeline entry used for Gantt-style output
// and the phase breakdown.
type TaskRecord struct {
	ID        string
	Name      string
	Submitted simclock.Time
	SetupAt   simclock.Time
	RunAt     simclock.Time
	EndedAt   simclock.Time
	Cores     int
	GPUs      int
	State     string
	// Placed reports whether the task ever received an allocation (it
	// reached exec setup). Tasks that failed fast or were cancelled while
	// still queued have Placed false; timestamps alone cannot tell them
	// apart from tasks placed at virtual time zero.
	Placed bool
	// Attempt is the 1-based execution attempt (>1 for fault-recovery
	// resubmissions; 0 in records written before the fault subsystem).
	Attempt int
	// Node is the node the attempt ran on, -1 when it was never placed.
	Node int
	// Fault names what killed a failed attempt ("" while healthy).
	Fault string
	// Pilot is the ID of the pilot the attempt was routed to ("" in
	// records written before the telemetry layer).
	Pilot string
	// Pipeline and Stage carry the protocol routing tags ("" when the
	// task was submitted outside a pipeline).
	Pipeline string
	Stage    string
	// Origin is the logical task identity shared by every attempt of a
	// retry chain (the first attempt's ID; "" in old records).
	Origin string
	// Resumed is the checkpointed progress this attempt started from
	// (zero for attempt-from-zero; preemption subsystem).
	Resumed time.Duration
	// Saved is the checkpointed progress this attempt banked for its
	// successor when it was evicted or failed with a checkpoint
	// available — the slice of its run the waste accounting credits as
	// useful (zero when nothing carried forward).
	Saved time.Duration
}

// Wait returns time from submission to the start of exec setup.
func (t TaskRecord) Wait() time.Duration { return t.SetupAt.Sub(t.Submitted) }

// Setup returns the exec-setup duration.
func (t TaskRecord) Setup() time.Duration { return t.RunAt.Sub(t.SetupAt) }

// Run returns the running-phase duration. An attempt that never reached
// its run phase (failed or cancelled while queued or in exec setup) has
// RunAt 0, and Run then returns its absolute end time, not a duration:
// callers summing run time skip records with RunAt 0.
func (t TaskRecord) Run() time.Duration { return t.EndedAt.Sub(t.RunAt) }

// TaskSource yields one final attempt's timeline record. The recorder
// logs sources rather than records, and calls Record only when Tasks
// builds a snapshot, so a source must be final when it is added: every
// later call returns the same record.
type TaskSource interface {
	Record() TaskRecord
}

// Recorder accumulates busy-resource deltas and phase durations. All
// methods take explicit timestamps so the recorder works under any clock.
// Its task log holds one TaskSource per final attempt (the runtime's own
// task, which its task table keeps alive anyway), not a copy of the
// record.
type Recorder struct {
	// totalCores and totalGPUs are the peak capacity held (the
	// utilization denominators and AddBusy's bound); heldCores and
	// heldGPUs are the capacity held right now, moved by Resize.
	totalCores int
	totalGPUs  int
	heldCores  int
	heldGPUs   int

	cpuBusy int
	gpuBusy int

	cpuSeries pagedLog[Point]
	gpuSeries pagedLog[Point]

	// pilots holds each pilot ordinal's step series, grown lazily the
	// first time a pilot reports; same coalescing discipline as the
	// busy-series.
	pilots []pilotSeries
	// With telemetry on, the instants and steering ticks logged; the
	// occupancy gauges live with the per-pilot series.
	telemetry bool
	instants  []Instant
	ticks     []Tick

	phases map[string]time.Duration
	tasks  pagedLog[TaskSource]

	// sortedTasks caches the submission-sorted view Tasks returns; it is
	// invalidated (nilled) by AddTask and rebuilt at most once per burst
	// of reads. aggRun accumulates running-phase time incrementally so
	// AggregateTaskTime is O(1).
	sortedTasks []TaskRecord
	aggRun      time.Duration

	start  simclock.Time
	end    simclock.Time
	closed bool
}

// pilotSeries is one pilot's step series: its queue depth, and with
// telemetry on its occupancy gauges (Gauges order).
type pilotSeries struct {
	queue  pagedLog[Point]
	gauges [len(Gauges)]pagedLog[Point]
}

// NewRecorder creates a recorder for a resource of the given capacity,
// with the campaign considered to begin at start.
func NewRecorder(totalCores, totalGPUs int, start simclock.Time) *Recorder {
	if totalCores <= 0 || totalGPUs < 0 {
		panic("trace: invalid capacity")
	}
	// The series and the task log are paged (see pagedLog): a small
	// campaign pays for one 64-entry page per log, a 40k-task run never
	// re-copies what it already logged.
	r := &Recorder{
		totalCores: totalCores,
		totalGPUs:  totalGPUs,
		heldCores:  totalCores,
		heldGPUs:   totalGPUs,
		phases:     make(map[string]time.Duration),
		start:      start,
		end:        start,
	}
	r.cpuSeries.push(Point{T: start, Value: 0})
	r.gpuSeries.push(Point{T: start, Value: 0})
	return r
}

// TotalCores returns the tracked core capacity: the most ever held.
func (r *Recorder) TotalCores() int { return r.totalCores }

// TotalGPUs returns the tracked GPU capacity: the most ever held.
func (r *Recorder) TotalGPUs() int { return r.totalGPUs }

// Resize applies a capacity delta: a node granted to (positive) or taken
// from (negative) the recorded resource. The tracked capacity follows
// the peak held, so utilization stays a fraction of the most the
// campaign ever had, and a shrink-then-grow transfer between two pilots
// of one campaign leaves it unchanged.
func (r *Recorder) Resize(dCores, dGPUs int) {
	r.heldCores += dCores
	r.heldGPUs += dGPUs
	if r.heldCores < 0 || r.heldGPUs < 0 {
		panic(fmt.Sprintf("trace: held capacity %d cores, %d GPUs below zero", r.heldCores, r.heldGPUs))
	}
	r.totalCores = max(r.totalCores, r.heldCores)
	r.totalGPUs = max(r.totalGPUs, r.heldGPUs)
}

// AddBusy applies a busy-resource delta at time t. Negative deltas mark
// the end of a busy phase. Going below zero or above capacity panics —
// both mean the executor's phase bookkeeping broke.
func (r *Recorder) AddBusy(t simclock.Time, dCores, dGPUs int) {
	if r.closed {
		panic("trace: AddBusy after Close")
	}
	r.cpuBusy += dCores
	r.gpuBusy += dGPUs
	if r.cpuBusy < 0 || r.cpuBusy > r.totalCores {
		panic(fmt.Sprintf("trace: busy cores %d outside [0,%d]", r.cpuBusy, r.totalCores))
	}
	if r.gpuBusy < 0 || r.gpuBusy > r.totalGPUs {
		panic(fmt.Sprintf("trace: busy GPUs %d outside [0,%d]", r.gpuBusy, r.totalGPUs))
	}
	if dCores != 0 {
		r.appendPoint(&r.cpuSeries, t, r.cpuBusy)
	}
	if dGPUs != 0 {
		r.appendPoint(&r.gpuSeries, t, r.gpuBusy)
	}
	if t > r.end {
		r.end = t
	}
}

// SetQueueDepth records pilot's queue depth at time t. Pilot is the
// zero-based pilot ordinal; an unchanged depth adds no point.
func (r *Recorder) SetQueueDepth(pilot int, t simclock.Time, depth int) {
	if r.closed {
		panic("trace: SetQueueDepth after Close")
	}
	if r.setStep(&r.seriesOf(pilot).queue, t, depth) && t > r.end {
		r.end = t
	}
}

// QueueSeries returns a copy of the queue-depth step series for the
// given pilot ordinal (nil when the pilot never reported).
func (r *Recorder) QueueSeries(pilot int) []Point {
	if pilot < 0 || pilot >= len(r.pilots) {
		return nil
	}
	return r.pilots[pilot].queue.flat()
}

// seriesOf returns the series of a pilot ordinal, growing the table
// the first time the pilot reports.
func (r *Recorder) seriesOf(pilot int) *pilotSeries {
	if pilot < 0 {
		panic("trace: negative pilot ordinal")
	}
	for len(r.pilots) <= pilot {
		r.pilots = append(r.pilots, pilotSeries{})
	}
	return &r.pilots[pilot]
}

// setStep sets a per-pilot step series to v at t. An unchanged value
// returns false without touching the series, so scheduling passes that
// move nothing stay allocation-free.
func (r *Recorder) setStep(series *pagedLog[Point], t simclock.Time, v int) bool {
	if last := series.last(); last != nil && last.Value == v {
		return false
	}
	r.appendPoint(series, t, v)
	return true
}

// appendPoint extends a step series: a point at the last point's time
// overwrites its value (same-instant deltas coalesce), an earlier time
// panics.
func (r *Recorder) appendPoint(series *pagedLog[Point], t simclock.Time, v int) {
	if last := series.last(); last != nil {
		if last.T == t {
			last.Value = v
			return
		}
		if t < last.T {
			panic("trace: timestamps must be monotone")
		}
	}
	series.push(Point{T: t, Value: v})
}

// AddPhase accumulates d into the named phase bucket.
func (r *Recorder) AddPhase(name string, d time.Duration) {
	if d < 0 {
		panic("trace: negative phase duration")
	}
	r.phases[name] += d
}

// AddTask logs a final attempt's source. runAt and endedAt are the
// attempt's RunAt and EndedAt: they move the campaign end and the running
// aggregate now, while the record itself is built only when Tasks needs
// it. Only attempts that reached their run phase (runAt > 0) count toward
// AggregateTaskTime.
func (r *Recorder) AddTask(src TaskSource, runAt, endedAt simclock.Time) {
	r.tasks.push(src)
	r.sortedTasks = nil
	if runAt > 0 {
		r.aggRun += endedAt.Sub(runAt)
	}
	if endedAt > r.end {
		r.end = endedAt
	}
}

// Close marks the campaign end time; utilization averages integrate up to
// this point.
func (r *Recorder) Close(t simclock.Time) {
	if t > r.end {
		r.end = t
	}
	r.closed = true
}

// Makespan returns the campaign duration.
func (r *Recorder) Makespan() time.Duration { return r.end.Sub(r.start) }

// integrate returns the time integral of a step series over [start, end],
// in resource-nanoseconds. It walks the pages in place, adding each
// step's area in series order.
func integrate(series *pagedLog[Point], start, end simclock.Time) float64 {
	if end <= start || series.n == 0 {
		return 0
	}
	var acc float64
	step := func(p Point, t1 simclock.Time) {
		t0 := max(p.T, start)
		t1 = min(t1, end)
		if t1 > t0 {
			acc += float64(p.Value) * float64(t1-t0)
		}
	}
	var prev Point
	seen := false
	for i := range series.pages {
		for _, p := range series.page(i) {
			if seen {
				step(prev, p.T)
			}
			prev, seen = p, true
		}
	}
	step(prev, end)
	return acc
}

// CPUUtilization returns average busy-core fraction (0..1) over the
// campaign window.
func (r *Recorder) CPUUtilization() float64 {
	span := float64(r.end - r.start)
	if span <= 0 {
		return 0
	}
	return integrate(&r.cpuSeries, r.start, r.end) / (span * float64(r.totalCores))
}

// GPUUtilization returns average busy-GPU fraction (0..1).
func (r *Recorder) GPUUtilization() float64 {
	if r.totalGPUs == 0 {
		return 0
	}
	span := float64(r.end - r.start)
	if span <= 0 {
		return 0
	}
	return integrate(&r.gpuSeries, r.start, r.end) / (span * float64(r.totalGPUs))
}

// CPUSeries returns a copy of the busy-core step series.
func (r *Recorder) CPUSeries() []Point { return r.cpuSeries.flat() }

// GPUSeries returns a copy of the busy-GPU step series.
func (r *Recorder) GPUSeries() []Point { return r.gpuSeries.flat() }

// Phases returns a copy of the phase-duration buckets.
func (r *Recorder) Phases() map[string]time.Duration {
	out := make(map[string]time.Duration, len(r.phases))
	for k, v := range r.phases {
		out[k] = v
	}
	return out
}

// Tasks returns the task records sorted by (Submitted, ID), built from
// the logged sources. The returned slice is a cached snapshot shared
// between calls until the next AddTask; callers must treat it as
// read-only. Every cache rebuild fills a fresh slice, so snapshots handed
// out earlier are never mutated.
func (r *Recorder) Tasks() []TaskRecord {
	if r.sortedTasks == nil && r.tasks.n > 0 {
		// Build each record once, in log order, then sort a 4-byte index
		// and apply it in place: swapping the records themselves moves
		// ~200 bytes per swap, and a sorted copy would double the
		// snapshot.
		out := make([]TaskRecord, 0, r.tasks.n)
		for i := range r.tasks.pages {
			for _, src := range r.tasks.page(i) {
				out = append(out, src.Record())
			}
		}
		order := make([]int32, len(out))
		for i := range order {
			order[i] = int32(i)
		}
		slices.SortFunc(order, func(x, y int32) int {
			a, b := &out[x], &out[y]
			if c := cmp.Compare(a.Submitted, b.Submitted); c != 0 {
				return c
			}
			return strings.Compare(a.ID, b.ID)
		})
		permute(out, order)
		r.sortedTasks = out
	}
	return r.sortedTasks
}

// permute reorders recs in place so that recs[i] becomes the old
// recs[order[i]]. It walks each cycle of the permutation holding one
// record, so every record moves once; order is consumed (left as the
// identity).
func permute(recs []TaskRecord, order []int32) {
	for i := range order {
		if int(order[i]) == i {
			continue
		}
		held := recs[i]
		j := i
		for {
			k := int(order[j])
			order[j] = int32(j)
			if k == i {
				recs[j] = held
				break
			}
			recs[j] = recs[k]
			j = k
		}
	}
}

// AggregateTaskTime returns the sum of the running-phase durations of
// every attempt that reached its run phase — the quantity the paper
// reports as "Time (h)": "the total time taken by all tasks to finish the
// execution on the compute resources". The sum is maintained
// incrementally by AddTask.
func (r *Recorder) AggregateTaskTime() time.Duration {
	return r.aggRun
}

// Sample returns the series value at time t (the step function's value).
// Series timestamps are monotone (appendPoint enforces it), so the step
// holding t is found by binary search in O(log n). The trace and pilot
// tests read busy series at an instant with it.
func Sample(series []Point, t simclock.Time) int {
	// First point strictly after t; the step in effect is the one before.
	i := sort.Search(len(series), func(i int) bool { return series[i].T > t })
	if i == 0 {
		return 0
	}
	return series[i-1].Value
}

// Resample converts a step series into n equally spaced samples over
// [start, end] — the form the figure renderers consume. Sample times are
// nondecreasing, so one cursor walks the series exactly once: O(points +
// samples) instead of a fresh scan per sample.
func Resample(series []Point, start, end simclock.Time, n int) []float64 {
	if n <= 0 {
		panic("trace: non-positive sample count")
	}
	out := make([]float64, n)
	if end <= start {
		return out
	}
	denom := float64(n - 1 + boolToInt(n == 1))
	span := float64(end - start)
	j, v := 0, 0
	for i := 0; i < n; i++ {
		t := start + simclock.Time(span*float64(i)/denom)
		for j < len(series) && series[j].T <= t {
			v = series[j].Value
			j++
		}
		out[i] = float64(v)
	}
	return out
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
