package trace

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"
	"time"
	"unsafe"

	"impress/internal/simclock"
	"impress/internal/xrand"
)

// flatRecorder is the recorder's logic over flat, append-grown slices —
// the storage the paged logs replaced. It is the oracle for the paged
// form: every query must agree bit for bit.
type flatRecorder struct {
	totalCores, totalGPUs int
	cpuBusy, gpuBusy      int
	cpuSeries, gpuSeries  []Point
	queueSeries           [][]Point
	tasks                 []TaskRecord
	start, end            simclock.Time
}

func newFlatRecorder(cores, gpus int, start simclock.Time) *flatRecorder {
	return &flatRecorder{
		totalCores: cores, totalGPUs: gpus,
		cpuSeries: []Point{{T: start}}, gpuSeries: []Point{{T: start}},
		start: start, end: start,
	}
}

func flatAppend(s []Point, t simclock.Time, v int) []Point {
	if len(s) > 0 && s[len(s)-1].T == t {
		s[len(s)-1].Value = v
		return s
	}
	return append(s, Point{T: t, Value: v})
}

func (f *flatRecorder) AddBusy(t simclock.Time, dc, dg int) {
	f.cpuBusy += dc
	f.gpuBusy += dg
	if dc != 0 {
		f.cpuSeries = flatAppend(f.cpuSeries, t, f.cpuBusy)
	}
	if dg != 0 {
		f.gpuSeries = flatAppend(f.gpuSeries, t, f.gpuBusy)
	}
	f.end = max(f.end, t)
}

func (f *flatRecorder) SetQueueDepth(pilot int, t simclock.Time, depth int) {
	for len(f.queueSeries) <= pilot {
		f.queueSeries = append(f.queueSeries, nil)
	}
	s := f.queueSeries[pilot]
	if len(s) > 0 && s[len(s)-1].Value == depth {
		return
	}
	f.queueSeries[pilot] = flatAppend(s, t, depth)
	f.end = max(f.end, t)
}

func (f *flatRecorder) AddTask(rec TaskRecord) {
	f.tasks = append(f.tasks, rec)
	f.end = max(f.end, rec.EndedAt)
}

func (f *flatRecorder) Close(t simclock.Time) { f.end = max(f.end, t) }

func (f *flatRecorder) QueueSeries(pilot int) []Point {
	if pilot >= len(f.queueSeries) {
		return nil
	}
	return append([]Point(nil), f.queueSeries[pilot]...)
}

func (f *flatRecorder) Tasks() []TaskRecord {
	if len(f.tasks) == 0 {
		return nil
	}
	out := append([]TaskRecord(nil), f.tasks...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Submitted != out[j].Submitted {
			return out[i].Submitted < out[j].Submitted
		}
		return out[i].ID < out[j].ID
	})
	return out
}

func flatIntegrate(series []Point, start, end simclock.Time) float64 {
	if end <= start || len(series) == 0 {
		return 0
	}
	var acc float64
	for i := 0; i < len(series); i++ {
		t0 := series[i].T
		t1 := end
		if i+1 < len(series) {
			t1 = series[i+1].T
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

// queries returns every derived value the oracle compares, by name.
func (f *flatRecorder) queries() map[string]float64 {
	span := float64(f.end - f.start)
	cpu, gpu := flatIntegrate(f.cpuSeries, f.start, f.end), flatIntegrate(f.gpuSeries, f.start, f.end)
	q := map[string]float64{
		"BusyCoreHours":  cpu / float64(time.Hour),
		"BusyGPUHours":   gpu / float64(time.Hour),
		"CPUUtilization": 0,
		"GPUUtilization": 0,
	}
	if span > 0 {
		q["CPUUtilization"] = cpu / (span * float64(f.totalCores))
		if f.totalGPUs > 0 {
			q["GPUUtilization"] = gpu / (span * float64(f.totalGPUs))
		}
	}
	return q
}

func recorderQueries(r *Recorder) map[string]float64 {
	return map[string]float64{
		"BusyCoreHours":  integrate(&r.cpuSeries, r.start, r.end) / float64(time.Hour),
		"BusyGPUHours":   integrate(&r.gpuSeries, r.start, r.end) / float64(time.Hour),
		"CPUUtilization": r.CPUUtilization(),
		"GPUUtilization": r.GPUUtilization(),
	}
}

// sameRecorders fails the test unless r and f agree on every series,
// the task snapshot and every integral, bit for bit.
func sameRecorders(t *testing.T, where string, r *Recorder, f *flatRecorder) {
	t.Helper()
	if got, want := r.CPUSeries(), f.cpuSeries; !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: CPUSeries differs (%d vs %d points)", where, len(got), len(want))
	}
	if got, want := r.GPUSeries(), f.gpuSeries; !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: GPUSeries differs (%d vs %d points)", where, len(got), len(want))
	}
	if len(r.pilots) != len(f.queueSeries) {
		t.Fatalf("%s: pilots = %d, want %d", where, len(r.pilots), len(f.queueSeries))
	}
	for p := 0; p <= len(f.queueSeries); p++ {
		if got, want := r.QueueSeries(p), f.QueueSeries(p); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: QueueSeries(%d) differs (%d vs %d points)", where, p, len(got), len(want))
		}
	}
	if got, want := r.Tasks(), f.Tasks(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Tasks differs (%d vs %d records)", where, len(got), len(want))
	}
	want := f.queries()
	for name, got := range recorderQueries(r) {
		if math.Float64bits(got) != math.Float64bits(want[name]) {
			t.Fatalf("%s: %s = %v, want %v", where, name, got, want[name])
		}
	}
}

func taskRecord(i int, sub simclock.Time) TaskRecord {
	return TaskRecord{
		ID: fmt.Sprintf("task.%06d", i), Name: "t", State: "DONE",
		Submitted: sub, SetupAt: sub + 1, RunAt: sub + 2, EndedAt: sub + simclock.Time(time.Minute),
		Cores: 1 + i%4, Attempt: 1, Node: i % 7, Placed: true,
	}
}

// TestPagedRecorderMatchesFlatAtPageBoundaries fills both recorders with
// exactly n entries per log, for n on either side of every page boundary
// through the 4096-entry cap and past it.
func TestPagedRecorderMatchesFlatAtPageBoundaries(t *testing.T) {
	var sizes []int
	for end, size := 0, firstPage; end < 2*maxPage+8128; size = min(2*size, maxPage) {
		end += size
		sizes = append(sizes, end-1, end, end+1)
	}
	for _, n := range sizes {
		r, f := NewRecorder(4, 2, 0), newFlatRecorder(4, 2, 0)
		// The series start with one point, so n-1 busy deltas fill n.
		for i := 1; i < n; i++ {
			at := simclock.Time(i) * simclock.Time(time.Second)
			d := 1 // +1, -1, ...: never coalesces, stays in range
			if i%2 == 0 {
				d = -1
			}
			r.AddBusy(at, d, d)
			f.AddBusy(at, d, d)
		}
		for i := 0; i < n; i++ {
			at := simclock.Time(i) * simclock.Time(time.Second)
			r.SetQueueDepth(1, at, i)
			f.SetQueueDepth(1, at, i)
			rec := taskRecord(i, simclock.Time(n-i)*simclock.Time(time.Second))
			addRecord(r, rec)
			f.AddTask(rec)
		}
		end := simclock.Time(n+120) * simclock.Time(time.Second)
		r.Close(end)
		f.Close(end)
		if len(f.cpuSeries) != n || len(f.queueSeries[1]) != n || len(f.tasks) != n {
			t.Fatalf("n=%d: oracle holds %d/%d/%d entries", n, len(f.cpuSeries), len(f.queueSeries[1]), len(f.tasks))
		}
		sameRecorders(t, fmt.Sprintf("n=%d", n), r, f)
	}
}

// TestPagedRecorderMatchesFlatRandomized drives both recorders with one
// random sequence of busy deltas, queue depths on several pilots,
// same-instant coalesces and task records, comparing at random reads.
func TestPagedRecorderMatchesFlatRandomized(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		rng := xrand.New(seed)
		const cores, gpus = 16, 4
		r, f := NewRecorder(cores, gpus, 0), newFlatRecorder(cores, gpus, 0)
		now := simclock.Time(0)
		steps := 2000 + rng.Intn(20000)
		for i := 0; i < steps; i++ {
			if rng.Intn(3) > 0 { // else stay on this instant: coalesce
				now += simclock.Time(1 + rng.Uint64()%uint64(time.Minute)) // rng.Intn's draw, 32-bit safe
			}
			switch op := rng.Intn(100); {
			case op < 40:
				dc := rng.Intn(cores+1) - f.cpuBusy
				dg := rng.Intn(gpus+1) - f.gpuBusy
				r.AddBusy(now, dc, dg)
				f.AddBusy(now, dc, dg)
			case op < 70:
				p, d := rng.Intn(4), rng.Intn(6)
				r.SetQueueDepth(p, now, d)
				f.SetQueueDepth(p, now, d)
			case op < 99:
				rec := taskRecord(i, simclock.Time(rng.Uint64()%(uint64(now)+1))) // now outgrows a 32-bit int
				addRecord(r, rec)
				f.AddTask(rec)
			default:
				if rng.Intn(8) == 0 { // each compare flattens and sorts everything
					sameRecorders(t, fmt.Sprintf("seed %d step %d", seed, i), r, f)
				}
			}
		}
		now += simclock.Time(time.Hour)
		r.Close(now)
		f.Close(now)
		sameRecorders(t, fmt.Sprintf("seed %d closed", seed), r, f)
	}
}

// TestAddTaskAllocatesEachRecordOnce is the allocation fence for the
// task log: N sources cost one log entry each (an interface value, 16
// bytes) plus page slack and headers — not a copy of the 216-byte
// record, and not the ~5 copies an append-grown slice pays while it
// regrows.
func TestAddTaskAllocatesEachRecordOnce(t *testing.T) {
	const n = 40_000
	r := NewRecorder(8, 1, 0)
	src := recordSource(taskRecord(1, 0))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		r.AddTask(&src, src.RunAt, src.EndedAt)
	}
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	// Page headers: the pages slice itself, regrown by append.
	headers := 4 * (n/maxPage + 8) * unsafe.Sizeof([]TaskSource(nil))
	limit := uint64(1.2*n*float64(unsafe.Sizeof(TaskSource(nil)))) + uint64(headers)
	if got >= limit {
		t.Fatalf("%d AddTask calls allocated %d bytes, want < %d", n, got, limit)
	}
}

func BenchmarkRecorderAddTask(b *testing.B) {
	const n = 20_000 // crosses every page size up to the cap
	src := recordSource(taskRecord(1, 0))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := NewRecorder(8, 1, 0)
		for j := 0; j < n; j++ {
			r.AddTask(&src, src.RunAt, src.EndedAt)
		}
	}
}

// sortSliceTasks is the snapshot Tasks built before it sorted an index:
// the records in append order, sorted in place by sort.Slice.
func sortSliceTasks(recs []TaskRecord) []TaskRecord {
	out := slices.Clone(recs)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Submitted != out[j].Submitted {
			return out[i].Submitted < out[j].Submitted
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// shuffledTaskRecords returns n records with unique IDs in a seeded
// random order. Their submission times take n/64 values, so about 64
// records share each one and, once added, straddle page boundaries.
func shuffledTaskRecords(n int) []TaskRecord {
	rng := xrand.New(42)
	recs := make([]TaskRecord, n)
	for i := range recs {
		recs[i] = taskRecord(i, simclock.Time(rng.Intn(n/64))*simclock.Time(time.Minute))
	}
	for i := n - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		recs[i], recs[j] = recs[j], recs[i]
	}
	return recs
}

// TestTasksMatchesSortSlice checks the index-sorted snapshot against
// sort.Slice on 40k shuffled records, and that a snapshot handed out
// before a later AddTask keeps its contents.
func TestTasksMatchesSortSlice(t *testing.T) {
	recs := shuffledTaskRecords(40_000)
	r := NewRecorder(8, 1, 0)
	for _, rec := range recs {
		addRecord(r, rec)
	}
	got := r.Tasks()
	if want := sortSliceTasks(recs); !slices.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		t.Fatalf("Tasks() differs from sort.Slice at record %d of %d/%d", i, len(got), len(want))
	}
	shared := 0
	for i := 1; i < len(got); i++ {
		if got[i].Submitted == got[i-1].Submitted {
			shared++
		}
	}
	if shared < len(got)/2 {
		t.Fatalf("only %d records share a submission time with their predecessor", shared)
	}

	snap := slices.Clone(got)
	early := taskRecord(len(recs), 0)
	early.ID = "task.early"
	addRecord(r, early)
	if !slices.Equal(got, snap) {
		t.Fatal("AddTask mutated an earlier Tasks() snapshot")
	}
	if again := r.Tasks(); len(again) != len(recs)+1 || !slices.Equal(again, sortSliceTasks(append(recs, early))) {
		t.Fatal("Tasks() after AddTask differs from sort.Slice")
	}
}

// TestTasksAllocatesSnapshotAndIndexOnly is the allocation fence for
// building the snapshot: one []TaskRecord and one 4-byte index entry per
// record, plus slack for size-class rounding. A second record-sized copy
// (a sort buffer, a flat copy of the log) breaks it.
func TestTasksAllocatesSnapshotAndIndexOnly(t *testing.T) {
	const n = 40_000
	r := NewRecorder(8, 1, 0)
	for _, rec := range shuffledTaskRecords(n) {
		addRecord(r, rec)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got := r.Tasks()
	runtime.ReadMemStats(&after)
	if len(got) != n {
		t.Fatalf("Tasks() holds %d records, want %d", len(got), n)
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	limit := uint64(n*(unsafe.Sizeof(TaskRecord{})+4)) + 64<<10
	if alloc >= limit {
		t.Fatalf("Tasks() allocated %d bytes for %d records, want < %d", alloc, n, limit)
	}
}

// BenchmarkRecorderTasks times rebuilding the sorted snapshot of a 40k
// record log, the size of a taskbag run.
func BenchmarkRecorderTasks(b *testing.B) {
	r := NewRecorder(8, 1, 0)
	for _, rec := range shuffledTaskRecords(40_000) {
		addRecord(r, rec)
	}
	b.ReportAllocs()
	for b.Loop() {
		r.sortedTasks = nil
		r.Tasks()
	}
}
