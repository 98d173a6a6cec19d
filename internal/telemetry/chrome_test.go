package telemetry

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"os"
	"strings"
	"testing"

	"impress/internal/simclock"
	"impress/internal/trace"
)

// TestValidateChromeTraceKeepsTracksApart: async tracks are (pid, cat,
// id) triples. Joined into one "pid/cat/id" string, cat "a/b" + id "c"
// and cat "a" + id "b/c" became the same track, so a span closed on the
// wrong track passed and two independent tracks were judged as one stack.
func TestValidateChromeTraceKeepsTracksApart(t *testing.T) {
	crossClose := `{"traceEvents":[` +
		`{"name":"x","ph":"b","pid":1,"ts":0,"cat":"a/b","id":"c"},` +
		`{"name":"x","ph":"e","pid":1,"ts":1,"cat":"a","id":"b/c"}]}`
	if err := ValidateChromeTrace([]byte(crossClose)); err == nil {
		t.Fatal("span closed on a different track passed validation")
	}
	independent := `{"traceEvents":[` +
		`{"name":"x","ph":"b","pid":1,"ts":1,"cat":"a/b","id":"c"},` +
		`{"name":"y","ph":"b","pid":1,"ts":0,"cat":"a","id":"b/c"},` +
		`{"name":"x","ph":"e","pid":1,"ts":2,"cat":"a/b","id":"c"},` +
		`{"name":"y","ph":"e","pid":1,"ts":3,"cat":"a","id":"b/c"}]}`
	if err := ValidateChromeTrace([]byte(independent)); err != nil {
		t.Fatalf("two independent tracks rejected: %v", err)
	}
}

// TestValidateChromeTraceReportsFirstUnclosedSpan: with several tracks
// left open, the error names the span on the track opened first, the
// same on every call.
func TestValidateChromeTraceReportsFirstUnclosedSpan(t *testing.T) {
	var sb strings.Builder
	sb.WriteString(`{"traceEvents":[`)
	// Track ids open in the order 9, 8, ..., 0; "closed" is balanced.
	sb.WriteString(`{"name":"closed","ph":"b","pid":1,"ts":0,"cat":"t","id":"c"},`)
	sb.WriteString(`{"name":"closed","ph":"e","pid":1,"ts":1,"cat":"t","id":"c"}`)
	for i := 9; i >= 0; i-- {
		id := string(rune('0' + i))
		sb.WriteString(`,{"name":"span` + id + `","ph":"b","pid":1,"ts":2,"cat":"t","id":"` + id + `"}`)
	}
	sb.WriteString(`]}`)
	data := []byte(sb.String())
	const want = `chrome trace: span "span9" on pid 1 cat "t" id "9" never closed`
	for i := 0; i < 50; i++ {
		err := ValidateChromeTrace(data)
		if err == nil || err.Error() != want {
			t.Fatalf("call %d: got %v, want %s", i, err, want)
		}
	}
}

// FuzzValidateChromeTrace: the validator never panics, its verdict is
// the same on a second call and the same as the reference validator's,
// its message is the reference's whenever the reference rejects a
// well-formed document for a structural reason, and a trace it accepts
// has as many span closes as span opens.
func FuzzValidateChromeTrace(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, []CampaignTrace{campaignTrace()}); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		err := ValidateChromeTrace(data)
		if again := ValidateChromeTrace(data); (err == nil) != (again == nil) || (err != nil && err.Error() != again.Error()) {
			t.Fatalf("verdict changed between calls: %v, then %v", err, again)
		}
		ref := referenceValidateChromeTrace(data)
		if (err == nil) != (ref == nil) {
			t.Fatalf("verdict %v, reference verdict %v", err, ref)
		}
		// The reference wraps JSON errors; its structural errors wrap
		// nothing.
		if ref != nil && errors.Unwrap(ref) == nil && err.Error() != ref.Error() {
			t.Fatalf("message %q, reference message %q", err, ref)
		}
		if err != nil {
			return
		}
		var doc struct {
			TraceEvents []struct {
				Ph string `json:"ph"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatalf("accepted trace does not parse: %v", err)
		}
		open := 0
		for _, ev := range doc.TraceEvents {
			switch ev.Ph {
			case "b":
				open++
			case "e":
				open--
			}
		}
		if open != 0 {
			t.Fatalf("accepted trace has %d more span opens than closes", open)
		}
	})
}

// FuzzChromeTraceEncoding: the streaming writer's bytes are the
// reference encoder's for campaigns built from fuzzed text, timestamps
// and floats (or both fail), both validators agree on them, and
// appendFloat writes any float64 as encoding/json does.
func FuzzChromeTraceEncoding(f *testing.F) {
	f.Add("unit/seed1", "pilot.0001", "mpnn", "fold", "rackA", "veto 0->1", int64(0), int64(3600e9), 0.4, 1e-7)
	f.Add(hostile, "p\"0\\", "\xff\xfe", "\u2028", "", "; ", int64(math.MinInt64), int64(math.MaxInt64), math.Inf(1), 1e21)
	f.Add("a/b", "a", "b/c", "", "\x00", "x", int64(-1), int64(1), -0.005, math.NaN())
	f.Fuzz(func(t *testing.T, label, pilot, name, stage, detail, action string, t0, t1 int64, util, x float64) {
		want, wantErr := json.Marshal(x)
		got, gotErr := appendFloat(nil, x)
		if (wantErr != nil) != (gotErr != nil) || (wantErr == nil && !bytes.Equal(got, want)) {
			t.Fatalf("appendFloat(%v) = %q, %v; encoding/json gives %q, %v", x, got, gotErr, want, wantErr)
		}
		ts := []simclock.Time{simclock.Time(t0), simclock.Time(t1), simclock.Time(t0 + t1), simclock.Time(t1 - t0)}
		node := int(uint64(t0)%4) - 1
		tasks := []trace.TaskRecord{
			{ID: name, Name: name, Stage: stage, Pipeline: detail, Origin: action, Fault: detail, Attempt: 1,
				Submitted: ts[0], SetupAt: ts[1], RunAt: ts[2], EndedAt: ts[3], Placed: t0%2 == 0,
				Cores: int(t1 % 7), GPUs: int(t0 % 3), State: stage, Pilot: pilot, Node: node},
			{ID: action, Name: stage, Origin: name, Submitted: ts[3], SetupAt: ts[2], RunAt: ts[1], EndedAt: ts[0],
				Placed: true, State: "DONE", Pilot: name, Node: node + 1},
			{ID: pilot, Name: label, Submitted: ts[1], SetupAt: ts[1], RunAt: ts[1], EndedAt: ts[1],
				Placed: true, State: detail, Pilot: pilot, Node: 2},
		}
		data := &Data{
			Instants: []trace.Instant{
				{T: ts[0], Kind: action, Pilot: node, Node: node, Detail: detail},
				{T: ts[1], Kind: stage, Pilot: 1, Node: -1},
			},
			Ticks: []trace.Tick{{T: ts[2], Pilots: []trace.PilotSample{
				{Queue: int(t0), Running: 1, Nodes: int(t1), Idle: -1, UtilWindow: util, QueueDelta: int(t1 - t0), Frozen: t1%2 == 0},
				{UtilWindow: -util},
			}, Actions: []string{action, detail}}},
			Series: map[string][]trace.Point{
				pilot + "/" + stage: {{T: ts[0], Value: int(t1)}},
				detail:              {{T: ts[3], Value: -1}},
			},
		}
		campaigns := []CampaignTrace{
			{Label: label, Pilots: []string{pilot, name}, Tasks: tasks,
				QueueSeries: [][]trace.Point{{{T: ts[1], Value: node}}, nil, {{T: ts[2], Value: 3}}}, Data: data},
			{Label: action, Pilots: []string{stage}, Tasks: tasks[2:]},
		}
		var ref, out bytes.Buffer
		refErr := referenceChromeTrace(&ref, campaigns)
		outErr := WriteChromeTrace(&out, campaigns)
		if (refErr != nil) != (outErr != nil) {
			t.Fatalf("error %v, reference error %v", outErr, refErr)
		}
		if refErr != nil {
			return
		}
		if !bytes.Equal(out.Bytes(), ref.Bytes()) {
			i := 0
			for i < min(out.Len(), ref.Len()) && out.Bytes()[i] == ref.Bytes()[i] {
				i++
			}
			t.Fatalf("export differs from the reference at byte %d:\n got: %q\nwant: %q", i,
				out.Bytes()[i:min(out.Len(), i+80)], ref.Bytes()[i:min(ref.Len(), i+80)])
		}
		err, refVerdict := ValidateChromeTrace(out.Bytes()), referenceValidateChromeTrace(out.Bytes())
		if (err == nil) != (refVerdict == nil) || (err != nil && err.Error() != refVerdict.Error()) {
			t.Fatalf("verdict %v, reference verdict %v", err, refVerdict)
		}
	})
}

// replicated is campaignTrace with every task copied n times under
// distinct IDs, still in (Submitted, ID) order.
func replicated(n int) CampaignTrace {
	c := campaignTrace()
	var tasks []trace.TaskRecord
	for _, tr := range c.Tasks {
		for k := 0; k < n; k++ {
			cp := tr
			cp.ID = fmt.Sprintf("%s#%03d", tr.ID, k)
			tasks = append(tasks, cp)
		}
	}
	c.Tasks = tasks
	return c
}

// TestChromeTraceAllocations: the writer's allocations do not grow with
// the number of events, and the validator allocates a fixed number of
// objects plus at most validatePerEvent per event (the slice-based
// validator it replaced allocated ~4.6 per event).
func TestChromeTraceAllocations(t *testing.T) {
	const writeAllocs, validateFixed, validatePerEvent = 16, 64, 0.35
	var prev float64
	for _, n := range []int{1, 20} {
		traces := []CampaignTrace{replicated(n)}
		write := testing.AllocsPerRun(20, func() {
			if err := WriteChromeTrace(io.Discard, traces); err != nil {
				t.Fatal(err)
			}
		})
		if write > writeAllocs || (prev != 0 && write > prev) {
			t.Errorf("%dx tasks: WriteChromeTrace allocates %.0f objects, want at most %d and no more than at 1x (%.0f)",
				n, write, writeAllocs, prev)
		}
		prev = write
		var buf bytes.Buffer
		if err := WriteChromeTrace(&buf, traces); err != nil {
			t.Fatal(err)
		}
		events := bytes.Count(buf.Bytes(), []byte(`{"name":`))
		validate := testing.AllocsPerRun(20, func() {
			if err := ValidateChromeTrace(buf.Bytes()); err != nil {
				t.Fatal(err)
			}
		})
		if validate > validateFixed+validatePerEvent*float64(events) {
			t.Errorf("%dx tasks: ValidateChromeTrace allocates %.0f objects for %d events, want at most %d + %.2f per event",
				n, validate, events, validateFixed, validatePerEvent)
		}
		t.Logf("%dx tasks, %d events: write %.0f allocs, validate %.0f allocs", n, events, write, validate)
	}
}

func BenchmarkWriteChromeTrace(b *testing.B) {
	traces := []CampaignTrace{replicated(200)}
	var buf bytes.Buffer
	for b.Loop() {
		buf.Reset()
		if err := WriteChromeTrace(&buf, traces); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(buf.Len()))
}

func BenchmarkValidateChromeTrace(b *testing.B) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, []CampaignTrace{replicated(200)}); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	for b.Loop() {
		if err := ValidateChromeTrace(buf.Bytes()); err != nil {
			b.Fatal(err)
		}
	}
}

// goldenChromePath pins the exporter's bytes. Regenerate with
//
//	UPDATE_GOLDEN=1 go test -run TestChromeTraceGolden ./internal/telemetry
const goldenChromePath = "testdata/chrome.golden"

// hostile is text the JSON writer must escape: quotes, backslashes,
// every control-character escape, U+2028/U+2029, invalid UTF-8, and the
// HTML characters encoding/json leaves alone with SetEscapeHTML(false).
const hostile = "q\"b\\s/\x00\x01\b\f\n\r\t\x1f\x7f \u2028\u2029 \xff\xc3 <&> é 😀"

// hostileTraces is two campaigns that reach every branch of the writer:
// unsorted tasks (the sort path), every span shape, escaped names in
// every string field, timestamps at both ends of the int64 nanosecond
// range, an instant without detail, instants and series routed off the
// pilot list, frozen pilots in a steering tick, and a campaign without
// telemetry data.
func hostileTraces() []CampaignTrace {
	pilots := []string{"p\"0\\" + hostile, "p1\u2028\xfe"}
	tasks := []trace.TaskRecord{
		// Submitted last, listed first: the writer must sort.
		{ID: "t3" + hostile, Name: "fold" + hostile, Stage: "fold\n" + hostile, Pipeline: "pl\t" + hostile,
			Origin: "t1", Attempt: 2, Submitted: hour(3), SetupAt: hour(3.5), RunAt: hour(4), EndedAt: hour(5),
			Placed: true, GPUs: 2, Cores: 1, State: "DONE", Pilot: pilots[1], Node: 7, Fault: "node\x00" + hostile},
		// Placed, but setup ran past the end: setup closes at EndedAt.
		{ID: "t2", Name: "mpnn", Submitted: hour(1), SetupAt: hour(1.5), RunAt: hour(1), EndedAt: hour(2),
			Placed: true, Cores: 4, State: "FAILED", Pilot: pilots[0], Node: 0, Fault: "task"},
		// Never placed: one queued span; an unknown pilot maps to ordinal 0.
		{ID: "t1", Name: "", Origin: "t1", Submitted: -1, EndedAt: 1, State: "CANCELED", Pilot: "nobody", Node: -1},
		// Placed at time zero on no node: no run slice.
		{ID: "t0", Name: "metrics", Origin: "t0", Attempt: 1, Submitted: 0, SetupAt: 0, RunAt: 0, EndedAt: 0,
			Placed: true, Cores: 1, State: "DONE", Pilot: pilots[1], Node: -1},
		// The extremes of the nanosecond clock.
		{ID: "t9", Name: "edge", Submitted: math.MinInt64, SetupAt: math.MinInt64 + 1, RunAt: math.MaxInt64 - 1,
			EndedAt: math.MaxInt64, Placed: true, Cores: 1, State: "DONE", Pilot: pilots[0], Node: 3},
	}
	data := &Data{
		Instants: []trace.Instant{
			{T: hour(0.5), Kind: trace.KindNodeCrash + hostile, Pilot: 1, Node: 7, Detail: "rack\"A\\" + hostile},
			{T: 1, Kind: trace.KindTransfer, Pilot: 0, Node: -1},               // empty detail: no args
			{T: math.MaxInt64, Kind: trace.KindOutage, Pilot: 5, Node: 11},     // off the pilot list
			{T: math.MinInt64, Kind: trace.KindSteerVeto, Pilot: -1, Node: -1}, // campaign-level
		},
		Ticks: []trace.Tick{
			{T: hour(1.5), Pilots: []trace.PilotSample{
				{Queue: 2, Running: 1, Nodes: 3, Idle: 1, UtilWindow: 0.125, QueueDelta: -4, Frozen: true},
				{Queue: 0, Nodes: 1, UtilWindow: 1, QueueDelta: 0},
			}, Actions: []string{"veto 0->1: " + hostile, "move"}},
			{T: hour(2.5), Pilots: nil},
		},
		Series: map[string][]trace.Point{
			pilots[0] + "/running":        {{T: 0, Value: 1}, {T: hour(1), Value: -2}},
			pilots[1] + "/free" + hostile: {{T: hour(2), Value: 1 << (bits.UintSize - 24)}}, // 1<<40 on 64-bit ints
			"unknown/gauge":               {{T: -1000, Value: 3}},
			"/leading-slash":              {{T: 1, Value: 0}},
			hostile:                       {{T: 2, Value: 9}},
		},
	}
	return []CampaignTrace{
		{
			Label:  "hostile/" + hostile,
			Pilots: pilots,
			Tasks:  tasks,
			QueueSeries: [][]trace.Point{
				{{T: 0, Value: 0}, {T: hour(1), Value: 2}},
				nil,
				{{T: 5, Value: 1}}, // more series than pilots: the campaign track
			},
			Data: data,
		},
		{
			Label:  "bare",
			Pilots: []string{"solo"},
			Tasks: []trace.TaskRecord{
				{ID: "b1", Name: "run", Submitted: 1500, SetupAt: 2500, RunAt: 3499, EndedAt: 123456789,
					Placed: true, Cores: 1, State: "DONE", Pilot: "solo", Node: 0},
			},
		},
	}
}

// TestChromeTraceGolden pins the exported bytes of the unit campaign, the
// hostile campaigns and an empty export.
func TestChromeTraceGolden(t *testing.T) {
	var sb strings.Builder
	for _, c := range []struct {
		name      string
		campaigns []CampaignTrace
	}{
		{"campaign", []CampaignTrace{campaignTrace()}},
		{"hostile", hostileTraces()},
		{"empty", nil},
	} {
		var buf bytes.Buffer
		if err := WriteChromeTrace(&buf, c.campaigns); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(c.campaigns) > 0 {
			if err := ValidateChromeTrace(buf.Bytes()); err != nil {
				t.Fatalf("%s: export fails validation: %v", c.name, err)
			}
		}
		sb.WriteString("-- " + c.name + " --\n")
		sb.Write(buf.Bytes())
	}
	got := sb.String()
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(goldenChromePath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenChromePath)
	if err != nil {
		t.Fatalf("reading golden file: %v (regenerate with UPDATE_GOLDEN=1)", err)
	}
	if bits.UintSize == 32 {
		// The hostile gauge is 1<<40 in the golden; a 32-bit int holds
		// 1<<8 there, and every other byte of the export is the same.
		want = bytes.Replace(want, []byte(`"value":1099511627776}`), []byte(`"value":256}`), 1)
	}
	if got != string(want) {
		i := 0
		for i < min(len(got), len(want)) && got[i] == want[i] {
			i++
		}
		t.Fatalf("export diverges from %s at byte %d:\n got: %q\nwant: %q", goldenChromePath, i,
			got[max(0, i-40):min(len(got), i+40)], want[max(0, i-40):min(len(want), i+40)])
	}
}
