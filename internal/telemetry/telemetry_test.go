package telemetry

import (
	"bytes"
	"testing"
	"time"

	"impress/internal/simclock"
	"impress/internal/trace"
)

func hour(h float64) simclock.Time { return simclock.Time(h * float64(time.Hour)) }

// TestNilRecorderIsInert: with telemetry off — a nil recorder or one
// that never enabled it — every recording call is a no-op and Collect
// returns no payload.
func TestNilRecorderIsInert(t *testing.T) {
	var none *trace.Recorder
	for name, r := range map[string]*trace.Recorder{"nil": none, "off": trace.NewRecorder(8, 1, 0)} {
		if r.Telemetry() {
			t.Fatalf("%s recorder reports telemetry on", name)
		}
		r.Instant(hour(1), trace.KindNodeCrash, 0, 3, "rackA")
		r.Tick(hour(1), nil, nil)
		r.SetOccupancy(0, hour(1), 2, 4, 0)
		if r != nil && (r.Instants() != nil || r.Ticks() != nil || r.GaugeSeries(0, 0) != nil) {
			t.Fatalf("%s recorder retained state", name)
		}
		if Collect(r, []string{"pilot"}) != nil {
			t.Fatalf("%s recorder returned data", name)
		}
	}
}

// newTelemetryRecorder returns a recorder with telemetry on.
func newTelemetryRecorder() *trace.Recorder {
	r := trace.NewRecorder(8, 1, 0)
	r.EnableTelemetry()
	return r
}

func TestInstantsBumpCounters(t *testing.T) {
	r := newTelemetryRecorder()
	r.Instant(hour(1), trace.KindNodeCrash, 0, 3, "rackA")
	r.Instant(hour(2), trace.KindNodeCrash, 1, 5, "rackB")
	r.Instant(hour(3), trace.KindTransfer, 1, -1, "cpu -> gpu")
	d := Collect(r, nil)
	if got := d.Counters[trace.KindNodeCrash]; got != 2 {
		t.Fatalf("crash counter = %d, want 2", got)
	}
	if got := d.Counters[trace.KindTransfer]; got != 1 {
		t.Fatalf("transfer counter = %d, want 1", got)
	}
	if len(d.Instants) != 3 || d.Instants[0].Detail != "rackA" {
		t.Fatalf("instants = %+v", d.Instants)
	}
}

// TestGaugeCoalescing: gauges share the queue-depth series' discipline
// (unchanged values add no point, a same-instant update overwrites) and
// are named by the pilot names Collect is given.
func TestGaugeCoalescing(t *testing.T) {
	r := newTelemetryRecorder()
	r.SetOccupancy(1, hour(1), 2, 4, 0)
	r.SetOccupancy(1, hour(2), 2, 4, 0) // unchanged: no point
	r.SetOccupancy(1, hour(3), 5, 4, 0)
	r.SetOccupancy(1, hour(3), 7, 4, 0) // same timestamp: overwrite
	d := Collect(r, []string{"cpu", "gpu"})
	s := d.Series["gpu/running"]
	if len(s) != 2 || s[0] != (trace.Point{T: hour(1), Value: 2}) || s[1] != (trace.Point{T: hour(3), Value: 7}) {
		t.Fatalf("series = %+v", s)
	}
	if len(d.Series) != 3 || len(d.Series["gpu/free-cores"]) != 1 || len(d.Series["gpu/free-gpus"]) != 1 {
		t.Fatalf("series = %v", d.Series)
	}
	if r.QueueSeries(1) != nil || r.Makespan() != 0 {
		t.Fatal("gauges touched the queue series or moved the campaign end")
	}
}

func TestGaugeNonMonotonePanics(t *testing.T) {
	r := newTelemetryRecorder()
	r.SetOccupancy(0, hour(2), 1, 1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for time going backwards")
		}
	}()
	r.SetOccupancy(0, hour(1), 2, 1, 1)
}

func TestDataSnapshotIsACopy(t *testing.T) {
	r := newTelemetryRecorder()
	r.Instant(hour(1), trace.KindOutage, 0, -1, "rackA")
	r.SetOccupancy(0, hour(1), 1, 1, 1)
	d := Collect(r, []string{"p"})
	d.Instants[0].Detail = "mutated"
	d.Series["p/running"][0].Value = 99
	again := Collect(r, []string{"p"})
	if again.Instants[0].Detail != "rackA" || again.Series["p/running"][0].Value != 1 {
		t.Fatal("Collect's payload aliased recorder state")
	}
}

// chainTasks is a synthetic three-stage campaign with one retry: A runs
// [0,1h], B is submitted the instant A ends and retries once (attempt 1
// fails at 2h, attempt 2 ends at 3h), C follows B exactly and ends at 4h.
func chainTasks() []trace.TaskRecord {
	return []trace.TaskRecord{
		{ID: "task.000001", Name: "mpnn", Stage: "mpnn", Origin: "task.000001", Attempt: 1,
			Submitted: 0, SetupAt: hour(0.1), RunAt: hour(0.2), EndedAt: hour(1),
			Placed: true, Cores: 4, State: "DONE", Pilot: "pilot.0001"},
		{ID: "task.000002", Name: "fold", Stage: "fold", Origin: "task.000002", Attempt: 1,
			Submitted: hour(1), SetupAt: hour(1.2), RunAt: hour(1.3), EndedAt: hour(2),
			Placed: true, GPUs: 1, State: "FAILED", Pilot: "pilot.0001", Fault: "task"},
		{ID: "task.000003", Name: "fold", Stage: "fold", Origin: "task.000002", Attempt: 2,
			Submitted: hour(2), SetupAt: hour(2.1), RunAt: hour(2.2), EndedAt: hour(3),
			Placed: true, GPUs: 1, State: "DONE", Pilot: "pilot.0001"},
		{ID: "task.000004", Name: "metrics", Stage: "metrics", Origin: "task.000004", Attempt: 1,
			Submitted: hour(3), SetupAt: hour(3.1), RunAt: hour(3.2), EndedAt: hour(4),
			Placed: true, Cores: 1, State: "DONE", Pilot: "pilot.0001"},
	}
}

func TestCriticalPathSumsToMakespan(t *testing.T) {
	cp := ComputeCriticalPath(chainTasks())
	if cp.Makespan != 4*time.Hour {
		t.Fatalf("makespan = %v, want 4h", cp.Makespan)
	}
	if len(cp.Segments) != 4 {
		t.Fatalf("segments = %d, want 4 (A, B#1, B#2, C)", len(cp.Segments))
	}
	var total time.Duration
	for _, seg := range cp.Segments {
		if seg.Total() != seg.Gap+seg.Wait+seg.Setup+seg.Run {
			t.Fatalf("segment %s Total inconsistent", seg.ID)
		}
		total += seg.Total()
	}
	if total != cp.Makespan {
		t.Fatalf("segment durations sum to %v, want makespan %v", total, cp.Makespan)
	}
	// The retry edge keeps the chain inside the fold origin: attempt 1
	// precedes attempt 2 on the path.
	if cp.Segments[1].ID != "task.000002" || cp.Segments[2].ID != "task.000003" {
		t.Fatalf("retry chain broken: %s -> %s", cp.Segments[1].ID, cp.Segments[2].ID)
	}
	if cp.Segments[2].Attempt != 2 {
		t.Fatalf("attempt = %d, want 2", cp.Segments[2].Attempt)
	}
}

func TestCriticalPathStageSlack(t *testing.T) {
	cp := ComputeCriticalPath(chainTasks())
	slack := make(map[string]StageSlack, len(cp.Stages))
	for _, s := range cp.Stages {
		slack[s.Stage] = s
	}
	// Every stage lies on the single serial chain: zero slack everywhere.
	for _, name := range []string{"mpnn", "fold", "metrics"} {
		s, ok := slack[name]
		if !ok {
			t.Fatalf("stage %s missing from %+v", name, cp.Stages)
		}
		if s.Slack != 0 {
			t.Fatalf("stage %s slack = %v, want 0 (serial chain)", name, s.Slack)
		}
		if s.OnPath == 0 {
			t.Fatalf("stage %s has no on-path attempts", name)
		}
	}
	if slack["fold"].Attempts != 2 || slack["fold"].OnPath != 2 {
		t.Fatalf("fold aggregation = %+v", slack["fold"])
	}
}

func TestCriticalPathEmpty(t *testing.T) {
	cp := ComputeCriticalPath(nil)
	if cp.Makespan != 0 || len(cp.Segments) != 0 || len(cp.Stages) != 0 {
		t.Fatalf("empty input produced %+v", cp)
	}
}

// TestCriticalPathOffPathSlack: a short parallel branch must carry
// positive slack while the long branch stays critical.
func TestCriticalPathOffPathSlack(t *testing.T) {
	tasks := []trace.TaskRecord{
		{ID: "task.000001", Name: "long", Stage: "long", Origin: "task.000001", Attempt: 1,
			Submitted: 0, SetupAt: 0, RunAt: 0, EndedAt: hour(4), Placed: true, State: "DONE"},
		{ID: "task.000002", Name: "short", Stage: "short", Origin: "task.000002", Attempt: 1,
			Submitted: 0, SetupAt: 0, RunAt: 0, EndedAt: hour(1), Placed: true, State: "DONE"},
	}
	cp := ComputeCriticalPath(tasks)
	if cp.Makespan != 4*time.Hour {
		t.Fatalf("makespan = %v", cp.Makespan)
	}
	slack := make(map[string]StageSlack)
	for _, s := range cp.Stages {
		slack[s.Stage] = s
	}
	if slack["long"].Slack != 0 {
		t.Fatalf("long slack = %v, want 0", slack["long"].Slack)
	}
	if slack["short"].Slack != 3*time.Hour {
		t.Fatalf("short slack = %v, want 3h", slack["short"].Slack)
	}
	if slack["short"].OnPath != 0 {
		t.Fatal("short branch claims the critical path")
	}
}

func campaignTrace() CampaignTrace {
	return CampaignTrace{
		Label:  "unit/seed1",
		Pilots: []string{"pilot.0001"},
		Tasks:  chainTasks(),
		QueueSeries: [][]trace.Point{
			{{T: 0, Value: 0}, {T: hour(1), Value: 2}, {T: hour(2), Value: 0}},
		},
		Data: &Data{
			Instants: []trace.Instant{
				{T: hour(0.5), Kind: trace.KindNodeCrash, Pilot: 0, Node: 2, Detail: "rackA"},
				{T: hour(2.5), Kind: trace.KindSteerMove, Pilot: 0, Node: -1, Detail: "1->0 8c/0g/32GB"},
			},
			Ticks: []trace.Tick{{T: hour(1.5),
				Pilots:  []trace.PilotSample{{Queue: 2, Running: 1, Nodes: 3, Idle: 1, Util: 0.5, UtilWindow: 0.4, QueueDelta: 1}},
				Actions: []string{"veto 0->1: last-node"}}},
			Counters: map[string]int64{trace.KindNodeCrash: 1, trace.KindSteerMove: 1},
			Series: map[string][]trace.Point{
				"pilot.0001/running": {{T: hour(0.2), Value: 1}, {T: hour(1), Value: 0}},
				"campaign-level":     {{T: hour(1), Value: 3}},
			},
		},
	}
}

func TestChromeTraceValidatesAndIsDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := WriteChromeTrace(&a, []CampaignTrace{campaignTrace()}); err != nil {
		t.Fatal(err)
	}
	if err := WriteChromeTrace(&b, []CampaignTrace{campaignTrace()}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two renders of the same campaign differ")
	}
	if err := ValidateChromeTrace(a.Bytes()); err != nil {
		t.Fatal(err)
	}
}

func TestChromeTraceUnplacedTask(t *testing.T) {
	ct := CampaignTrace{
		Label:  "unit/unplaced",
		Pilots: []string{"pilot.0001"},
		Tasks: []trace.TaskRecord{
			{ID: "task.000001", Name: "doomed", Submitted: 0, EndedAt: hour(1),
				State: "CANCELED", Pilot: "pilot.0001"},
		},
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, []CampaignTrace{ct}); err != nil {
		t.Fatal(err)
	}
	if err := ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Fatalf("unplaced-task trace invalid: %v", err)
	}
}

func TestValidateChromeTraceRejectsGarbage(t *testing.T) {
	for name, data := range map[string]string{
		"not json":     "][",
		"no events":    `{"traceEvents":[]}`,
		"missing ph":   `{"traceEvents":[{"name":"x","pid":1,"ts":0}]}`,
		"missing ts":   `{"traceEvents":[{"name":"x","ph":"i","pid":1}]}`,
		"negative dur": `{"traceEvents":[{"name":"x","ph":"X","pid":1,"ts":0,"dur":-1}]}`,
		"unbalanced b": `{"traceEvents":[{"name":"x","ph":"b","pid":1,"ts":0,"cat":"t","id":"1"}]}`,
		"close empty":  `{"traceEvents":[{"name":"x","ph":"e","pid":1,"ts":0,"cat":"t","id":"1"}]}`,
		"crossed nesting": `{"traceEvents":[` +
			`{"name":"a","ph":"b","pid":1,"ts":0,"cat":"t","id":"1"},` +
			`{"name":"b","ph":"b","pid":1,"ts":1,"cat":"t","id":"1"},` +
			`{"name":"a","ph":"e","pid":1,"ts":2,"cat":"t","id":"1"},` +
			`{"name":"b","ph":"e","pid":1,"ts":3,"cat":"t","id":"1"}]}`,
	} {
		if err := ValidateChromeTrace([]byte(data)); err == nil {
			t.Fatalf("%s: validation passed", name)
		}
	}
}
