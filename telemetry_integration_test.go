package impress_test

// End-to-end telemetry regression layer, pinned against the same seed-42
// pair scenario as the golden trace: the Chrome-trace export must be valid
// and deterministic, the result must carry the full telemetry payload, and
// the critical path must partition the makespan exactly.

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"testing"

	"impress"
)

// runPairTelemetry executes the pair scenario at seed 42 with the
// telemetry recorder enabled and returns both campaign results
// (CONT-V, IM-RP).
func runPairTelemetry(t *testing.T) []*impress.Result {
	t.Helper()
	campaigns, err := impress.BuildScenario("pair", impress.ScenarioParams{
		Seed:      42,
		Telemetry: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	outs := impress.RunCampaigns(campaigns, 1)
	results := make([]*impress.Result, len(outs))
	for i, o := range outs {
		if o.Err != nil {
			t.Fatalf("campaign %s failed: %v", o.Name, o.Err)
		}
		results[i] = o.Result
	}
	return results
}

func TestTelemetryPayloadPopulated(t *testing.T) {
	for _, res := range runPairTelemetry(t) {
		if res.Telemetry == nil {
			t.Fatalf("%s: telemetry enabled but Result.Telemetry is nil", res.Approach)
		}
		if len(res.QueueSeries) == 0 {
			t.Fatalf("%s: no queue-depth series recorded", res.Approach)
		}
		// Gauges are maintained per pilot: running tasks plus free
		// cores at minimum (the pair machines all have CPU cores).
		var running, free bool
		for n := range res.Telemetry.Series {
			running = running || strings.HasSuffix(n, "/running")
			free = free || strings.HasSuffix(n, "/free-cores")
		}
		if !running || !free {
			t.Fatalf("%s: occupancy gauges missing from recorded series", res.Approach)
		}
	}
}

func TestChromeTraceEndToEnd(t *testing.T) {
	results := runPairTelemetry(t)
	labels := []string{"contv", "imrp"}

	render := func() []byte {
		var buf bytes.Buffer
		if err := impress.WriteChromeTrace(&buf, results, labels); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := render(), render()
	if !bytes.Equal(a, b) {
		t.Fatal("chrome trace rendering is not deterministic")
	}
	if err := impress.ValidateChromeTrace(a); err != nil {
		t.Fatalf("exported chrome trace is malformed: %v", err)
	}
	// The export's bytes are pinned by digest: a writer change that
	// alters one byte of pair@42's trace fails here.
	const wantLen, wantSum = 343155, "0111af22f82fcf645736cee48a0115ac7536c093f7b77fbbc76b24b0a9b66203"
	if sum := fmt.Sprintf("%x", sha256.Sum256(a)); len(a) != wantLen || sum != wantSum {
		t.Fatalf("pair@42 chrome trace is %d bytes with sha256 %s, want %d bytes with sha256 %s",
			len(a), sum, wantLen, wantSum)
	}
}

// TestGaugesOnPilotTracks runs pair@42 on the split CPU/GPU pilots with
// telemetry on: every gauge series and task record is named after one
// of the result's pilots, and in the Chrome export every counter but the
// queue depth sits on a pilot's process, not on the campaign's. Every
// task span and run slice sits on the process of its task's pilot, each
// run slice on a named node thread, and every pilot holds task spans and
// node threads.
func TestGaugesOnPilotTracks(t *testing.T) {
	campaigns, err := impress.BuildScenario("pair", impress.ScenarioParams{
		Seed:        42,
		SplitPilots: true,
		Telemetry:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range impress.RunCampaigns(campaigns, 1) {
		if o.Err != nil {
			t.Fatalf("campaign %s failed: %v", o.Name, o.Err)
		}
		res := o.Result
		for name := range res.Telemetry.Series {
			pilot, _, _ := strings.Cut(name, "/")
			if !slices.Contains(res.Pilots, pilot) {
				t.Errorf("%s: gauge series %q names no pilot of %v", o.Name, name, res.Pilots)
			}
		}
		var buf bytes.Buffer
		if err := impress.WriteChromeTrace(&buf, []*impress.Result{res}, []string{o.Name}); err != nil {
			t.Fatal(err)
		}
		var doc struct {
			TraceEvents []struct {
				Name, Ph, ID string
				Pid, Tid     int
				Args         map[string]any
			}
		}
		if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
			t.Fatal(err)
		}
		process := make(map[int]string)
		for _, e := range doc.TraceEvents {
			if e.Ph == "M" && e.Name == "process_name" {
				process[e.Pid], _ = e.Args["name"].(string)
			}
		}
		gauges := 0
		for _, e := range doc.TraceEvents {
			if e.Ph != "C" || e.Name == "queue depth" {
				continue
			}
			gauges++
			if strings.HasSuffix(process[e.Pid], "/campaign") {
				t.Fatalf("%s: gauge %q sits on the campaign process %q", o.Name, e.Name, process[e.Pid])
			}
		}
		if gauges == 0 {
			t.Fatalf("%s: no gauge counters exported", o.Name)
		}

		processOf := make(map[string]string) // task ID -> its pilot's process
		for _, tr := range res.TaskRecords {
			if !slices.Contains(res.Pilots, tr.Pilot) {
				t.Fatalf("%s: task %s ran on %q, no pilot of %v", o.Name, tr.ID, tr.Pilot, res.Pilots)
			}
			processOf[tr.ID] = o.Name + "/" + tr.Pilot
		}
		spans, nodeThreads := make(map[string]int), make(map[string]int)
		named := make(map[[2]int]bool)
		for _, e := range doc.TraceEvents {
			if e.Ph == "M" && e.Name == "thread_name" && e.Tid > 0 {
				named[[2]int{e.Pid, e.Tid}] = true
				nodeThreads[process[e.Pid]]++
			}
		}
		for _, e := range doc.TraceEvents {
			id := e.ID
			switch e.Ph {
			case "b":
				spans[process[e.Pid]]++
			case "e":
			case "X":
				id, _ = e.Args["id"].(string)
				if !named[[2]int{e.Pid, e.Tid}] {
					t.Fatalf("%s: run slice of %s on thread %d of %q, which names no node", o.Name, id, e.Tid, process[e.Pid])
				}
			default:
				continue
			}
			if got, want := process[e.Pid], processOf[id]; got != want {
				t.Fatalf("%s: %q event of task %s sits on %q, want %q", o.Name, e.Ph, id, got, want)
			}
		}
		for _, p := range res.Pilots {
			if spans[o.Name+"/"+p] == 0 || nodeThreads[o.Name+"/"+p] == 0 {
				t.Fatalf("%s: pilot %s holds %d task spans and %d node threads, want some of each", o.Name, p, spans[o.Name+"/"+p], nodeThreads[o.Name+"/"+p])
			}
		}
	}
}

// TestCriticalPathPartitionsMakespan pins the structural invariant of the
// critical-path analysis on a real campaign: the chain of segments tiles
// [0, makespan] with no gaps or overlaps, so per-segment phase durations
// (gap + wait + setup + run) sum exactly to the campaign makespan.
func TestCriticalPathPartitionsMakespan(t *testing.T) {
	for _, res := range runPairTelemetry(t) {
		cp := res.CriticalPath()
		if len(cp.Segments) == 0 {
			t.Fatalf("%s: empty critical path", res.Approach)
		}
		var sum int64
		for _, seg := range cp.Segments {
			sum += int64(seg.Total())
		}
		if sum != int64(cp.Makespan) {
			t.Fatalf("%s: critical-path segments sum to %d ns, makespan is %d ns",
				res.Approach, sum, int64(cp.Makespan))
		}
		if cp.Makespan != res.Makespan {
			t.Fatalf("%s: critical-path makespan %v != campaign makespan %v",
				res.Approach, cp.Makespan, res.Makespan)
		}
		if len(cp.Stages) == 0 {
			t.Fatalf("%s: no per-stage slack rows", res.Approach)
		}
		// The report renderings must at least not panic and carry the
		// stage table.
		text := impress.CriticalPathReport(res)
		if !strings.Contains(text, "Stage") {
			t.Fatalf("%s: critical-path report missing stage table:\n%s", res.Approach, text)
		}
	}
}
