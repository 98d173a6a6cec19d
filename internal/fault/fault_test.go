package fault

import (
	"math"
	"testing"
	"time"

	"impress/internal/xrand"
)

func TestSpecEnabledAndZeroValueInert(t *testing.T) {
	var zero Spec
	if zero.Enabled() {
		t.Fatal("zero spec reports enabled")
	}
	if err := zero.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, ok := zero.TaskFault(7, "pl.0001:s1_mpnn:c1", true, time.Hour); ok {
		t.Fatal("zero spec injected a task fault")
	}
	for _, s := range []Spec{
		{TaskFailProb: 0.1},
		{StageFailProb: map[string]float64{"s4_fold": 0.5}},
		{NodeMTBF: time.Hour},
		{Walltime: time.Hour},
	} {
		if !s.Enabled() {
			t.Fatalf("spec %+v should be enabled", s)
		}
	}
}

func TestSpecValidate(t *testing.T) {
	bad := []Spec{
		{TaskFailProb: -0.1},
		{TaskFailProb: 1.0},
		{TaskFailProb: math.NaN()},
		{TaskFailProb: math.Inf(1)},
		{TaskFailProb: math.Inf(-1)},
		{StageFailProb: map[string]float64{"x": 1.5}},
		{StageFailProb: map[string]float64{"x": math.NaN()}},
		{StageFailProb: map[string]float64{"x": math.Inf(-1)}},
		{GPUFailFactor: -1},
		{GPUFailFactor: math.NaN()},
		{GPUFailFactor: math.Inf(1)},
		{GPUFailFactor: math.Inf(-1)},
		{NodeMTBF: -time.Hour},
		{NodeRepair: -time.Minute},
		{Walltime: -time.Second},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Fatalf("spec %+v accepted", s)
		}
	}
	ok := Spec{TaskFailProb: 0.3, GPUFailFactor: 2, NodeMTBF: 4 * time.Hour, NodeRepair: 20 * time.Minute, Walltime: 30 * time.Hour}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTaskProbResolution(t *testing.T) {
	s := Spec{
		TaskFailProb:  0.10,
		StageFailProb: map[string]float64{"s4_fold": 0.40},
		GPUFailFactor: 2,
	}
	if p := s.TaskProb("pl.0001:s2_rank:c1", false); p != 0.10 {
		t.Fatalf("base prob = %v", p)
	}
	if p := s.TaskProb("pl.0001:s4_fold:c2", false); p != 0.40 {
		t.Fatalf("stage prob = %v", p)
	}
	if p := s.TaskProb("pl.0001:s2_rank:c1", true); p != 0.20 {
		t.Fatalf("gpu prob = %v", p)
	}
	// Scaling never exceeds the 0.999 clamp.
	hot := Spec{TaskFailProb: 0.9, GPUFailFactor: 10}
	if p := hot.TaskProb("x", true); p > 0.999 {
		t.Fatalf("clamped prob = %v", p)
	}
}

func TestTaskFaultDeterministicAndInRange(t *testing.T) {
	s := Spec{TaskFailProb: 0.5}
	total := 90 * time.Minute
	failures := 0
	const n = 2000
	for i := 0; i < n; i++ {
		seed := uint64(i) * 0x9e3779b97f4a7c15
		at1, ok1 := s.TaskFault(seed, "t", false, total)
		at2, ok2 := s.TaskFault(seed, "t", false, total)
		if ok1 != ok2 || at1 != at2 {
			t.Fatal("TaskFault is not a pure function of its inputs")
		}
		if ok1 {
			failures++
			if at1 < 0 || at1 >= total {
				t.Fatalf("fault time %v outside [0, %v)", at1, total)
			}
		}
	}
	// Roughly the configured rate (binomial, generous bounds).
	if failures < n*40/100 || failures > n*60/100 {
		t.Fatalf("failure rate %d/%d far from 0.5", failures, n)
	}
}

func TestCrashDelayDistribution(t *testing.T) {
	rng := xrand.New(99)
	mtbf := 6 * time.Hour
	var sum time.Duration
	const n = 4000
	for i := 0; i < n; i++ {
		d := CrashDelay(rng, mtbf)
		if d < time.Second {
			t.Fatalf("crash delay %v below floor", d)
		}
		sum += d
	}
	mean := sum / n
	if mean < mtbf/2 || mean > mtbf*2 {
		t.Fatalf("mean crash delay %v far from MTBF %v", mean, mtbf)
	}
}

func TestPolicyRegistry(t *testing.T) {
	want := []string{"backoff", "elsewhere", "none", "retry"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", got, want)
		}
	}
	if _, err := New("panic-and-rerun"); err == nil {
		t.Fatal("unknown policy accepted")
	}
	if err := Validate(""); err != nil {
		t.Fatal("empty policy name rejected")
	}
	if Default() != "none" {
		t.Fatalf("Default() = %q", Default())
	}
}

func TestPolicyDecisions(t *testing.T) {
	none, _ := New("none")
	if d := none.Decide(Attempt{Attempt: 1, Kind: KindTask}); d.Retry {
		t.Fatal("none retried")
	}

	retry, _ := New("retry")
	if d := retry.Decide(Attempt{Attempt: 1}); !d.Retry || d.Delay != 0 || d.ExcludeNode {
		t.Fatalf("retry attempt 1: %+v", d)
	}
	if d := retry.Decide(Attempt{Attempt: retryMaxAttempts}); d.Retry {
		t.Fatal("retry exceeded its attempt budget")
	}

	backoff, _ := New("backoff")
	d1 := backoff.Decide(Attempt{Attempt: 1})
	d2 := backoff.Decide(Attempt{Attempt: 2})
	d3 := backoff.Decide(Attempt{Attempt: 3})
	if !d1.Retry || !d2.Retry || !d3.Retry {
		t.Fatal("backoff gave up early")
	}
	if d2.Delay != 2*d1.Delay || d3.Delay != 2*d2.Delay {
		t.Fatalf("backoff delays not exponential: %v %v %v", d1.Delay, d2.Delay, d3.Delay)
	}
	if d := backoff.Decide(Attempt{Attempt: backoffMaxAttempts}); d.Retry {
		t.Fatal("backoff exceeded its attempt budget")
	}

	elsewhere, _ := New("elsewhere")
	if d := elsewhere.Decide(Attempt{Attempt: 1, Node: 2}); !d.Retry || !d.ExcludeNode {
		t.Fatalf("elsewhere on a placed attempt: %+v", d)
	}
	if d := elsewhere.Decide(Attempt{Attempt: 1, Node: -1}); !d.Retry || d.ExcludeNode {
		t.Fatalf("elsewhere on an unplaced attempt: %+v", d)
	}
}

func TestKindStrings(t *testing.T) {
	for k := Kind(0); k < KindCount; k++ {
		if k.String() == "" {
			t.Fatalf("kind %d has no name", k)
		}
	}
}
