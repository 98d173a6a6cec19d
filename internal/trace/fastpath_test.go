package trace

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"impress/internal/simclock"
	"impress/internal/xrand"
)

// linearSample is the pre-optimization O(n) reference implementation of
// Sample, kept verbatim so the binary-search fast path can be proven
// equivalent over randomized inputs.
func linearSample(series []Point, t simclock.Time) int {
	v := 0
	for _, p := range series {
		if p.T > t {
			break
		}
		v = p.Value
	}
	return v
}

// linearResample is the pre-optimization O(points × samples) reference
// implementation of Resample.
func linearResample(series []Point, start, end simclock.Time, n int) []float64 {
	out := make([]float64, n)
	if end <= start {
		return out
	}
	for i := 0; i < n; i++ {
		t := start + simclock.Time(float64(end-start)*float64(i)/float64(n-1+boolToInt(n == 1)))
		out[i] = float64(linearSample(series, t))
	}
	return out
}

// randomSeries builds a random strictly-increasing step series the way a
// recorder would (monotone timestamps, arbitrary values).
func randomSeries(rng *xrand.RNG, points int) []Point {
	series := make([]Point, 0, points)
	t := simclock.Time(0)
	for i := 0; i < points; i++ {
		t += simclock.Time(rng.Intn(3600)+1) * simclock.Time(time.Second)
		series = append(series, Point{T: t, Value: rng.Intn(64)})
	}
	return series
}

// TestSampleMatchesLinearReference proves the O(log n) Sample equals the
// old linear scan over randomized step series, including probes before
// the first point, exactly on points, between points, and after the end.
func TestSampleMatchesLinearReference(t *testing.T) {
	check := func(seed uint64, nRaw uint8) bool {
		rng := xrand.New(seed)
		series := randomSeries(rng, int(nRaw%60))
		span := simclock.Time(2 * time.Hour * 3600)
		for probe := 0; probe < 200; probe++ {
			at := simclock.Time(rng.Intn(int(span)))
			if Sample(series, at) != linearSample(series, at) {
				return false
			}
		}
		// Exact-timestamp probes hit the boundary case of the search.
		for _, p := range series {
			if Sample(series, p.T) != linearSample(series, p.T) {
				return false
			}
			if Sample(series, p.T-1) != linearSample(series, p.T-1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestResampleMatchesLinearReference proves the single-cursor Resample
// equals the old per-sample rescan bit for bit over randomized series and
// sample counts (including n=1 and windows that clip the series).
func TestResampleMatchesLinearReference(t *testing.T) {
	check := func(seed uint64, nRaw uint8, samplesRaw uint8) bool {
		rng := xrand.New(seed)
		series := randomSeries(rng, int(nRaw%60))
		n := int(samplesRaw%100) + 1
		var last simclock.Time
		if len(series) > 0 {
			last = series[len(series)-1].T
		}
		windows := [][2]simclock.Time{
			{0, last + simclock.Time(time.Hour)},
			{last / 3, 2 * last / 3},
			{0, 0}, // empty window: all zeros
		}
		for _, w := range windows {
			got := Resample(series, w[0], w[1], n)
			want := linearResample(series, w[0], w[1], n)
			for i := range want {
				if got[i] != want[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestTasksCacheInvalidation interleaves Tasks() reads with AddTask
// writes: every read must reflect all records added so far, sorted by
// (Submitted, ID), and snapshots handed out earlier must not be mutated
// by later rebuilds.
func TestTasksCacheInvalidation(t *testing.T) {
	r := NewRecorder(8, 1, 0)
	var snapshots [][]TaskRecord
	for i := 0; i < 20; i++ {
		// Descending submission times force real re-sorts.
		sub := simclock.Time(20-i) * simclock.Time(time.Minute)
		addRecord(r, TaskRecord{
			ID:        fmt.Sprintf("task.%06d", i),
			Submitted: sub,
			RunAt:     sub,
			EndedAt:   sub + simclock.Time(time.Minute),
		})
		got := r.Tasks()
		if len(got) != i+1 {
			t.Fatalf("after %d adds Tasks() has %d records", i+1, len(got))
		}
		for j := 1; j < len(got); j++ {
			if got[j-1].Submitted > got[j].Submitted {
				t.Fatalf("Tasks() unsorted after add %d: %v > %v", i, got[j-1].Submitted, got[j].Submitted)
			}
		}
		// Repeated reads without writes must hit the cache (same backing).
		again := r.Tasks()
		if len(again) > 0 && &again[0] != &got[0] {
			t.Fatal("Tasks() rebuilt its cache without an intervening AddTask")
		}
		snapshots = append(snapshots, got)
	}
	// Earlier snapshots keep their own length and order: rebuilds sort a
	// fresh copy, never the escaped slice.
	for i, snap := range snapshots {
		if len(snap) != i+1 {
			t.Fatalf("snapshot %d mutated: len %d", i, len(snap))
		}
		for j := 1; j < len(snap); j++ {
			if snap[j-1].Submitted > snap[j].Submitted {
				t.Fatalf("snapshot %d lost sortedness", i)
			}
		}
	}
	// The incremental aggregate matches a direct sum.
	var want time.Duration
	for _, rec := range r.Tasks() {
		want += rec.Run()
	}
	if got := r.AggregateTaskTime(); got != want {
		t.Fatalf("AggregateTaskTime = %v, want %v", got, want)
	}
}
