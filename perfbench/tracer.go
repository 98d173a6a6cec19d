package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime/pprof"
	"time"

	"impress/internal/simclock"
)

// tracer records, for one traced repetition, spans around the benchmark's
// own calls into each layer, the duration of every engine Step the
// benchmark drives, and every task submission it makes. Everything stays in
// memory until write. A nil tracer records nothing, so untraced runs pay
// one nil check per call site.
type tracer struct {
	epoch   time.Time
	spans   []span
	open    []int
	steps   []time.Duration
	submits []time.Duration
	// probe, when set, runs one kernel-probe call after every probeEvery
	// traced steps.
	probe      *scienceProbe
	probeEvery int
	// expectedSteps is the untraced run's event count, over which the
	// probe calls are spread.
	expectedSteps int
	// prof holds the CPU profile of the run phase.
	prof    bytes.Buffer
	profErr error
}

// span is one timed call; Parent indexes the enclosing span (-1 at the top).
type span struct {
	Name    string  `json:"name"`
	Parent  int     `json:"parent"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() float64 { return float64(time.Since(t.epoch)) / 1e3 }

// begin opens a span nested in the innermost open one and returns a
// function that closes it.
func (t *tracer) begin(name string) func() {
	if t == nil {
		return func() {}
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	i := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Parent: parent, StartUS: t.now()})
	t.open = append(t.open, i)
	return func() {
		t.spans[i].EndUS = t.now()
		t.open = t.open[:len(t.open)-1]
	}
}

// total sums the durations of every span with the given name, in seconds.
func (t *tracer) total(name string) float64 {
	var us float64
	for _, s := range t.spans {
		if s.Name == name {
			us += s.EndUS - s.StartUS
		}
	}
	return us / 1e6
}

// drive steps the engine until no event is left. Traced, it times each
// Step individually.
func (t *tracer) drive(engine *simclock.Engine) {
	defer t.begin("simclock.run")()
	if t == nil {
		for engine.Step() {
		}
		return
	}
	for {
		t0 := time.Now()
		ok := engine.Step()
		d := time.Since(t0)
		if !ok {
			return
		}
		t.steps = append(t.steps, d)
		if t.probe != nil && len(t.steps)%t.probeEvery == 0 {
			t.probe.next()
		}
	}
}

// probeSpent is the wall time interleaved probe calls took.
func (t *tracer) probeSpent() time.Duration {
	if t == nil || t.probe == nil {
		return 0
	}
	return t.probe.spent
}

// startProfile starts CPU profiling into the tracer.
func (t *tracer) startProfile() {
	if t != nil {
		t.profErr = pprof.StartCPUProfile(&t.prof)
	}
}

// stopProfile stops the profile startProfile started.
func (t *tracer) stopProfile() {
	if t != nil && t.profErr == nil {
		pprof.StopCPUProfile()
	}
}

// cpuShares decodes the run phase's profile into per-package shares.
func (t *tracer) cpuShares() (map[string]float64, error) {
	if t.profErr != nil {
		return nil, t.profErr
	}
	return cpuShares(t.prof.Bytes())
}

// write dumps the spans as JSON.
func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
