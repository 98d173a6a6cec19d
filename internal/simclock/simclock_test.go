package simclock

import (
	"sort"
	"testing"
	"testing/quick"
	"time"

	"impress/internal/xrand"
)

func TestEventsFireInTimeOrder(t *testing.T) {
	e := New()
	var got []int
	e.After(30*time.Minute, func() { got = append(got, 3) })
	e.After(10*time.Minute, func() { got = append(got, 1) })
	e.After(20*time.Minute, func() { got = append(got, 2) })
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("fire order = %v, want [1 2 3]", got)
	}
	if e.Now() != Time(30*time.Minute) {
		t.Fatalf("clock ended at %v, want 30m", e.Now())
	}
}

func TestTieBreakIsFIFO(t *testing.T) {
	e := New()
	var got []int
	for i := 0; i < 50; i++ {
		i := i
		e.At(Time(time.Hour), func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-timestamp events fired out of submission order: %v", got)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	e := New()
	var trace []string
	e.After(time.Second, func() {
		trace = append(trace, "outer")
		e.After(time.Second, func() { trace = append(trace, "inner") })
	})
	n := e.Run()
	if n != 2 {
		t.Fatalf("fired %d events, want 2", n)
	}
	if e.Now() != Time(2*time.Second) {
		t.Fatalf("now = %v, want 2s", e.Now())
	}
	if len(trace) != 2 || trace[0] != "outer" || trace[1] != "inner" {
		t.Fatalf("trace = %v", trace)
	}
}

func TestCancel(t *testing.T) {
	e := New()
	fired := false
	ev := e.After(time.Second, func() { fired = true })
	if !ev.Pending() {
		t.Fatal("event not pending after scheduling")
	}
	e.Cancel(ev)
	if ev.Pending() {
		t.Fatal("event still pending after cancel")
	}
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	// Double-cancel and zero-handle cancel must be no-ops.
	e.Cancel(ev)
	e.Cancel(Event{})
}

func TestCancelMiddleOfHeap(t *testing.T) {
	e := New()
	var got []int
	evs := make([]Event, 10)
	for i := 0; i < 10; i++ {
		i := i
		evs[i] = e.After(time.Duration(i+1)*time.Second, func() { got = append(got, i) })
	}
	e.Cancel(evs[4])
	e.Cancel(evs[7])
	e.Run()
	want := []int{0, 1, 2, 3, 5, 6, 8, 9}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestRunUntil(t *testing.T) {
	e := New()
	count := 0
	for i := 1; i <= 10; i++ {
		e.After(time.Duration(i)*time.Hour, func() { count++ })
	}
	fired := e.RunUntil(Time(5 * time.Hour))
	if fired != 5 || count != 5 {
		t.Fatalf("RunUntil fired %d (count %d), want 5", fired, count)
	}
	if e.Now() != Time(5*time.Hour) {
		t.Fatalf("now = %v, want 5h", e.Now())
	}
	// Advancing to a time with no events still moves the clock.
	e.RunUntil(Time(5*time.Hour + 30*time.Minute))
	if e.Now() != Time(5*time.Hour+30*time.Minute) {
		t.Fatalf("now = %v", e.Now())
	}
	e.Run()
	if count != 10 {
		t.Fatalf("count = %d, want 10", count)
	}
}

func TestPastSchedulingPanics(t *testing.T) {
	e := New()
	e.After(time.Hour, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.At(Time(time.Minute), func() {})
}

func TestNegativeAfterPanics(t *testing.T) {
	e := New()
	defer func() {
		if recover() == nil {
			t.Fatal("negative After did not panic")
		}
	}()
	e.After(-time.Second, func() {})
}

func TestNilFuncPanics(t *testing.T) {
	e := New()
	defer func() {
		if recover() == nil {
			t.Fatal("nil event fn did not panic")
		}
	}()
	e.At(0, nil)
}

func TestDeferRunsAfterCurrentInstant(t *testing.T) {
	e := New()
	var got []string
	e.At(Time(time.Second), func() {
		e.Defer(func() { got = append(got, "deferred") })
		got = append(got, "first")
	})
	e.At(Time(time.Second), func() { got = append(got, "second") })
	e.Run()
	want := []string{"first", "second", "deferred"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	if e.Now() != Time(time.Second) {
		t.Fatalf("Defer advanced the clock: %v", e.Now())
	}
}

func TestTicker(t *testing.T) {
	e := New()
	var ticks []Time
	tk := e.Every(10*time.Minute, func(now Time) { ticks = append(ticks, now) })
	e.RunUntil(Time(time.Hour))
	tk.Stop()
	e.Run()
	if len(ticks) != 6 {
		t.Fatalf("got %d ticks, want 6: %v", len(ticks), ticks)
	}
	for i, tick := range ticks {
		want := Time(time.Duration(i+1) * 10 * time.Minute)
		if tick != want {
			t.Fatalf("tick %d at %v, want %v", i, tick, want)
		}
	}
}

func TestTickerStopFromWithinTick(t *testing.T) {
	e := New()
	count := 0
	var tk *Ticker
	tk = e.Every(time.Minute, func(Time) {
		count++
		if count == 3 {
			tk.Stop()
		}
	})
	e.Run()
	if count != 3 {
		t.Fatalf("ticker fired %d times after in-tick stop, want 3", count)
	}
}

func TestFiredAndPendingCounters(t *testing.T) {
	e := New()
	e.After(time.Second, func() {})
	e.After(2*time.Second, func() {})
	if len(e.heap) != 2 {
		t.Fatalf("Pending = %d, want 2", len(e.heap))
	}
	e.Run()
	if e.Fired() != 2 || len(e.heap) != 0 {
		t.Fatalf("Fired = %d Pending = %d", e.Fired(), len(e.heap))
	}
}

// Property: for any random batch of events, the observed fire order is the
// stable sort of (time, submission index).
func TestPropertyFireOrderMatchesStableSort(t *testing.T) {
	check := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%100) + 1
		rng := xrand.New(seed)
		e := New()
		type item struct {
			at  Time
			idx int
		}
		items := make([]item, n)
		var got []int
		for i := 0; i < n; i++ {
			at := Time(rng.Intn(20)) * Time(time.Minute)
			items[i] = item{at, i}
			i := i
			e.At(at, func() { got = append(got, i) })
		}
		sort.SliceStable(items, func(a, b int) bool { return items[a].at < items[b].at })
		e.Run()
		for i := range items {
			if got[i] != items[i].idx {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeHelpers(t *testing.T) {
	tm := Time(150 * time.Minute)
	if tm.Hours() != 2.5 {
		t.Fatalf("Hours = %v", tm.Hours())
	}
	if tm.Add(30*time.Minute).Hours() != 3 {
		t.Fatal("Add broken")
	}
	if tm.Sub(Time(time.Hour)) != 90*time.Minute {
		t.Fatal("Sub broken")
	}
	if tm.Duration() != 150*time.Minute {
		t.Fatal("Duration broken")
	}
	if Time(time.Hour).String() != "1h0m0s" {
		t.Fatalf("String = %q", Time(time.Hour).String())
	}
}

func BenchmarkScheduleAndRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := New()
		for j := 0; j < 1000; j++ {
			e.After(time.Duration(j%17)*time.Second, func() {})
		}
		e.Run()
	}
}
