// Package trace records what the paper's Figures 4 and 5 plot: busy-CPU
// and busy-GPU time series over a campaign, average utilization
// percentages, and the per-task phase breakdown (Bootstrap / Exec setup /
// Running).
//
// "Busy" is distinct from "allocated": a task may hold a GPU while only
// its CPU phase runs (CONT-V's monolithic AlphaFold task does exactly
// that), and utilization counts only actively used resources — the same
// accounting the paper's monitoring produced.
package trace

import (
	"fmt"
	"sort"
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

// Run returns the running-phase duration.
func (t TaskRecord) Run() time.Duration { return t.EndedAt.Sub(t.RunAt) }

// Recorder accumulates busy-resource deltas and phase durations. All
// methods take explicit timestamps so the recorder works under any clock.
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

	cpuSeries []Point
	gpuSeries []Point

	// queueSeries holds one step series per pilot ordinal: the pilot's
	// queue depth over virtual time. Grown lazily the first time a pilot
	// reports; same coalescing discipline as the busy-series.
	queueSeries [][]Point

	phases map[string]time.Duration
	tasks  []TaskRecord

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

// NewRecorder creates a recorder for a resource of the given capacity,
// with the campaign considered to begin at start.
func NewRecorder(totalCores, totalGPUs int, start simclock.Time) *Recorder {
	if totalCores <= 0 || totalGPUs < 0 {
		panic("trace: invalid capacity")
	}
	// Capacity hints: a busy campaign emits thousands of series points
	// and hundreds of task records; starting with room for a burst keeps
	// early growth off the reallocation staircase.
	const seriesHint, taskHint = 256, 64
	return &Recorder{
		totalCores: totalCores,
		totalGPUs:  totalGPUs,
		heldCores:  totalCores,
		heldGPUs:   totalGPUs,
		cpuSeries:  append(make([]Point, 0, seriesHint), Point{T: start, Value: 0}),
		gpuSeries:  append(make([]Point, 0, seriesHint), Point{T: start, Value: 0}),
		phases:     make(map[string]time.Duration),
		tasks:      make([]TaskRecord, 0, taskHint),
		start:      start,
		end:        start,
	}
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
// zero-based pilot ordinal. Unchanged depths return without touching the
// series, so scheduling passes that move nothing stay allocation-free.
func (r *Recorder) SetQueueDepth(pilot int, t simclock.Time, depth int) {
	if pilot < 0 {
		panic("trace: negative pilot ordinal")
	}
	if r.closed {
		panic("trace: SetQueueDepth after Close")
	}
	for len(r.queueSeries) <= pilot {
		r.queueSeries = append(r.queueSeries, nil)
	}
	s := r.queueSeries[pilot]
	if len(s) > 0 && s[len(s)-1].Value == depth {
		return
	}
	r.appendPoint(&r.queueSeries[pilot], t, depth)
	if t > r.end {
		r.end = t
	}
}

// QueueSeries returns a copy of the queue-depth step series for the
// given pilot ordinal (nil when the pilot never reported).
func (r *Recorder) QueueSeries(pilot int) []Point {
	if pilot < 0 || pilot >= len(r.queueSeries) {
		return nil
	}
	return append([]Point(nil), r.queueSeries[pilot]...)
}

// QueuePilots returns how many pilot queue series have been started.
func (r *Recorder) QueuePilots() int { return len(r.queueSeries) }

func (r *Recorder) appendPoint(series *[]Point, t simclock.Time, v int) {
	s := *series
	if len(s) > 0 && s[len(s)-1].T == t {
		s[len(s)-1].Value = v
		*series = s
		return
	}
	if len(s) > 0 && t < s[len(s)-1].T {
		panic("trace: timestamps must be monotone")
	}
	*series = append(s, Point{T: t, Value: v})
}

// AddPhase accumulates d into the named phase bucket.
func (r *Recorder) AddPhase(name string, d time.Duration) {
	if d < 0 {
		panic("trace: negative phase duration")
	}
	r.phases[name] += d
}

// AddTask appends a completed task's timeline record.
func (r *Recorder) AddTask(rec TaskRecord) {
	r.tasks = append(r.tasks, rec)
	r.sortedTasks = nil
	r.aggRun += rec.Run()
	if rec.EndedAt > r.end {
		r.end = rec.EndedAt
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

// Span returns the recorded campaign window.
func (r *Recorder) Span() (start, end simclock.Time) { return r.start, r.end }

// Makespan returns the campaign duration.
func (r *Recorder) Makespan() time.Duration { return r.end.Sub(r.start) }

// integrate returns the time integral of a step series over [start, end],
// in resource-nanoseconds.
func integrate(series []Point, start, end simclock.Time) float64 {
	if end <= start || len(series) == 0 {
		return 0
	}
	var acc float64
	for i := 0; i < len(series); i++ {
		t0 := series[i].T
		var t1 simclock.Time
		if i+1 < len(series) {
			t1 = series[i+1].T
		} else {
			t1 = end
		}
		if t0 < start {
			t0 = start
		}
		if t1 > end {
			t1 = end
		}
		if t1 > t0 {
			acc += float64(series[i].Value) * float64(t1-t0)
		}
	}
	return acc
}

// CPUUtilization returns average busy-core fraction (0..1) over the
// campaign window.
func (r *Recorder) CPUUtilization() float64 {
	span := float64(r.end - r.start)
	if span <= 0 {
		return 0
	}
	return integrate(r.cpuSeries, r.start, r.end) / (span * float64(r.totalCores))
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
	return integrate(r.gpuSeries, r.start, r.end) / (span * float64(r.totalGPUs))
}

// BusyCoreHours returns the integral of busy cores, in core-hours.
func (r *Recorder) BusyCoreHours() float64 {
	return integrate(r.cpuSeries, r.start, r.end) / float64(time.Hour)
}

// BusyGPUHours returns the integral of busy GPUs, in GPU-hours.
func (r *Recorder) BusyGPUHours() float64 {
	return integrate(r.gpuSeries, r.start, r.end) / float64(time.Hour)
}

// CPUSeries returns a copy of the busy-core step series.
func (r *Recorder) CPUSeries() []Point { return append([]Point(nil), r.cpuSeries...) }

// GPUSeries returns a copy of the busy-GPU step series.
func (r *Recorder) GPUSeries() []Point { return append([]Point(nil), r.gpuSeries...) }

// Phases returns a copy of the phase-duration buckets.
func (r *Recorder) Phases() map[string]time.Duration {
	out := make(map[string]time.Duration, len(r.phases))
	for k, v := range r.phases {
		out[k] = v
	}
	return out
}

// Tasks returns the task records sorted by submission time. The returned
// slice is a cached snapshot shared between calls until the next AddTask;
// callers must treat it as read-only. Every cache rebuild sorts a fresh
// copy, so snapshots handed out earlier are never mutated.
func (r *Recorder) Tasks() []TaskRecord {
	if r.sortedTasks == nil && len(r.tasks) > 0 {
		out := append([]TaskRecord(nil), r.tasks...)
		sort.Slice(out, func(i, j int) bool {
			if out[i].Submitted != out[j].Submitted {
				return out[i].Submitted < out[j].Submitted
			}
			return out[i].ID < out[j].ID
		})
		r.sortedTasks = out
	}
	return r.sortedTasks
}

// AggregateTaskTime returns the sum of all tasks' running-phase durations —
// the quantity the paper reports as "Time (h)": "the total time taken by
// all tasks to finish the execution on the compute resources". The sum is
// maintained incrementally by AddTask.
func (r *Recorder) AggregateTaskTime() time.Duration {
	return r.aggRun
}

// Sample returns the series value at time t (the step function's value).
// Series timestamps are monotone (appendPoint enforces it), so the step
// holding t is found by binary search in O(log n).
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
