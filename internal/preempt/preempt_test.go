package preempt

import (
	"math/rand"
	"testing"
	"time"
)

func TestProgressQuantizesToIntervals(t *testing.T) {
	const m = time.Minute
	cases := []struct {
		resumeFrom, elapsed, interval, want time.Duration
	}{
		{0, 0, 15 * m, 0},
		{0, 14 * m, 15 * m, 0},           // not yet at the first boundary
		{0, 15 * m, 15 * m, 15 * m},      // exactly on a boundary
		{0, 44 * m, 15 * m, 30 * m},      // two whole intervals banked
		{10 * m, 7 * m, 15 * m, 10 * m},  // inherited progress survives
		{10 * m, 16 * m, 15 * m, 25 * m}, // inherited + one new interval
		{0, 3 * time.Hour, time.Hour, 3 * time.Hour},
		{0, -5 * m, 15 * m, 0}, // pre-run interruption banks nothing
	}
	for _, c := range cases {
		if got := Progress(c.resumeFrom, c.elapsed, c.interval); got != c.want {
			t.Errorf("Progress(%v, %v, %v) = %v, want %v", c.resumeFrom, c.elapsed, c.interval, got, c.want)
		}
	}
}

func TestZeroIntervalIsInert(t *testing.T) {
	// The golden-trace contract in miniature: with a non-positive
	// interval an attempt's own run time banks nothing — eviction loses
	// everything past the inherited progress.
	for _, interval := range []time.Duration{0, -time.Minute} {
		for _, elapsed := range []time.Duration{0, time.Minute, 3 * time.Hour} {
			if got := Progress(42*time.Minute, elapsed, interval); got != 42*time.Minute {
				t.Fatalf("Progress(42m, %v, %v) = %v, want the inherited 42m", elapsed, interval, got)
			}
			if got := Progress(0, elapsed, interval); got != 0 {
				t.Fatalf("Progress(0, %v, %v) = %v, want nothing banked", elapsed, interval, got)
			}
		}
	}
}

func TestLostBounds(t *testing.T) {
	// The work an interruption re-executes (the run time past the last
	// checkpoint) is always in [0, interval) when checkpointing is on,
	// regardless of inherited progress.
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 1000; i++ {
		interval := time.Duration(1+rng.Intn(120)) * time.Minute
		resumeFrom := time.Duration(rng.Intn(600)) * time.Minute
		elapsed := time.Duration(rng.Intn(100_000)) * time.Second
		lost := resumeFrom + elapsed - Progress(resumeFrom, elapsed, interval)
		if lost < 0 || lost >= interval {
			t.Fatalf("lost work for (%v, %v, %v) = %v, want in [0, %v)", resumeFrom, elapsed, interval, lost, interval)
		}
	}
}

func TestProgressMonotonic(t *testing.T) {
	// Banked progress never decreases as an attempt runs longer.
	const interval = 15 * time.Minute
	prev := time.Duration(-1)
	for elapsed := time.Duration(0); elapsed <= 2*time.Hour; elapsed += time.Minute {
		got := Progress(5*time.Minute, elapsed, interval)
		if got < prev {
			t.Fatalf("Progress regressed at elapsed=%v: %v < %v", elapsed, got, prev)
		}
		prev = got
	}
}

func TestFinishesWithin(t *testing.T) {
	if !FinishesWithin(30*time.Minute, 45*time.Minute) {
		t.Fatal("a 30m remainder must fit a 45m drain window")
	}
	if !FinishesWithin(45*time.Minute, 45*time.Minute) {
		t.Fatal("an exactly-fitting remainder must be allowed to run out")
	}
	if FinishesWithin(46*time.Minute, 45*time.Minute) {
		t.Fatal("a 46m remainder must not fit a 45m drain window")
	}
	if FinishesWithin(time.Minute, 0) {
		t.Fatal("a zero grace window admits nothing")
	}
}
