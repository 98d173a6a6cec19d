package core

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"impress/internal/cluster"
	"impress/internal/fault"
	"impress/internal/workload"
)

func TestResultJSONRoundTrip(t *testing.T) {
	targets := smallTargets(t, 3, 21)
	res, err := RunAdaptive(targets, fastAdaptive(21))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf, true); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadResultJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Approach != res.Approach ||
		loaded.TrajectoryCount() != res.TrajectoryCount() ||
		loaded.SubPipelines != res.SubPipelines ||
		loaded.TaskCount != res.TaskCount {
		t.Fatal("scalar fields lost in round trip")
	}
	if loaded.CPUUtilization != res.CPUUtilization || loaded.Makespan != res.Makespan {
		t.Fatal("timeline fields lost")
	}
	// Analysis accessors agree.
	for it := 1; it <= res.Iterations(); it++ {
		am, as := res.IterationSummary(it, PLDDTOf)
		bm, bs := loaded.IterationSummary(it, PLDDTOf)
		if am != bm || as != bs {
			t.Fatalf("iteration %d summary diverged", it)
		}
	}
	if loaded.NetDelta(PTMOf) != res.NetDelta(PTMOf) {
		t.Fatal("net delta diverged")
	}
	// Final designs survive with sequences and coordinates.
	for name, st := range res.FinalDesigns {
		got := loaded.FinalDesigns[name]
		if got == nil {
			t.Fatalf("final design %s lost", name)
		}
		if !bytes.Equal(got.Receptor.Seq, st.Receptor.Seq) || got.Generation != st.Generation {
			t.Fatalf("final design %s corrupted", name)
		}
		if len(got.RecXYZ) != len(st.RecXYZ) {
			t.Fatalf("final design %s coordinates lost", name)
		}
	}
	if len(loaded.TaskRecords) != len(res.TaskRecords) {
		t.Fatal("task records lost despite includeTasks")
	}
}

// TestResultJSONRoundTripExecutionRecord pins the execution-layer fields
// — seed, per-pilot policy/recovery/steering labels, node transfers, and
// the full fault accounting — through a write/read cycle. A campaign with
// all three subsystems on exercises every optional field at once.
func TestResultJSONRoundTripExecutionRecord(t *testing.T) {
	targets := smallTargets(t, 3, 27)
	cfg := fastAdaptive(27)
	cfg.Machine = cluster.AmarelCluster(2)
	cfg = splitConfig(t, cfg)
	cfg.Steer = "greedy"
	cfg.Recovery = "retry"
	cfg.Fault = fault.Spec{TaskFailProb: 0.15}
	res, err := RunAdaptive(targets, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The source result must actually carry the record being pinned.
	if res.Seed != 27 || res.Steer != "greedy" || res.Faults == nil {
		t.Fatalf("campaign record incomplete: seed %d steer %q faults %v", res.Seed, res.Steer, res.Faults)
	}
	if len(res.Policies) != 2 || len(res.Recoveries) != 2 || len(res.Steerings) != 2 {
		t.Fatalf("per-pilot labels incomplete: %v %v %v", res.Policies, res.Recoveries, res.Steerings)
	}
	if res.Faults.TaskFaults == 0 {
		t.Fatal("fault injection produced no task faults at rate 0.15")
	}

	// includeTasks keeps the per-attempt records, so derived quantities
	// that walk them (Goodput) survive too.
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf, true); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadResultJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Seed != res.Seed {
		t.Errorf("seed: %d != %d", loaded.Seed, res.Seed)
	}
	if !reflect.DeepEqual(loaded.Policies, res.Policies) ||
		!reflect.DeepEqual(loaded.Recoveries, res.Recoveries) ||
		!reflect.DeepEqual(loaded.Steerings, res.Steerings) {
		t.Errorf("per-pilot labels lost: %v %v %v", loaded.Policies, loaded.Recoveries, loaded.Steerings)
	}
	if loaded.Steer != res.Steer || loaded.NodeTransfers != res.NodeTransfers {
		t.Errorf("steering record lost: %q/%d != %q/%d",
			loaded.Steer, loaded.NodeTransfers, res.Steer, res.NodeTransfers)
	}
	if loaded.SteerLabel() != res.SteerLabel() ||
		loaded.PolicyLabel() != res.PolicyLabel() ||
		labelOf(loaded.Recoveries) != labelOf(res.Recoveries) {
		t.Error("derived labels diverged after round trip")
	}
	if !reflect.DeepEqual(loaded.Faults, res.Faults) {
		t.Errorf("fault stats lost:\n got %+v\nwant %+v", loaded.Faults, res.Faults)
	}
	if loaded.Goodput() != res.Goodput() {
		t.Errorf("goodput diverged: %v != %v", loaded.Goodput(), res.Goodput())
	}
}

func TestResultJSONWithoutTasks(t *testing.T) {
	targets := smallTargets(t, 1, 22)
	res, err := RunControl(targets, fastControl(22))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf, false); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadResultJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.TaskRecords) != 0 {
		t.Fatal("task records present despite includeTasks=false")
	}
}

func TestReadResultJSONRejectsBadSchema(t *testing.T) {
	if _, err := ReadResultJSON(strings.NewReader(`{"schema": 99}`)); err == nil {
		t.Fatal("wrong schema accepted")
	}
	if _, err := ReadResultJSON(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestEventStream(t *testing.T) {
	targets := smallTargets(t, 3, 23)
	res, err := RunAdaptive(targets, fastAdaptive(23))
	if err != nil {
		t.Fatal(err)
	}
	events := res.Events
	if len(events) == 0 {
		t.Fatal("no events recorded")
	}
	counts := countEvents(events)
	var lastAt int64 = -1
	for _, e := range events {
		if int64(e.At) < lastAt {
			t.Fatal("events out of time order")
		}
		lastAt = int64(e.At)
	}
	if counts[EventPipelineStarted] < 3 {
		t.Errorf("pipeline-started events: %d", counts[EventPipelineStarted])
	}
	if counts[EventCycleConcluded] != res.TrajectoryCount() {
		t.Errorf("cycle events %d != trajectories %d", counts[EventCycleConcluded], res.TrajectoryCount())
	}
	if counts[EventPipelineFinished] != res.BasePipelines+res.SubPipelines {
		t.Errorf("finished events %d != pipelines %d", counts[EventPipelineFinished], res.BasePipelines+res.SubPipelines)
	}
	if counts[EventSubPipelineSpawned] != res.SubPipelines {
		t.Errorf("spawn events %d != sub-pipelines %d", counts[EventSubPipelineSpawned], res.SubPipelines)
	}
	if counts[EventCampaignDone] != 1 || events[len(events)-1].Kind != EventCampaignDone {
		t.Errorf("campaign-done events: %d, last event %v", counts[EventCampaignDone], events[len(events)-1].Kind)
	}
	// Event rendering includes trajectory detail.
	sawDetail := false
	for _, e := range events {
		if e.Kind == EventCycleConcluded && strings.Contains(e.String(), "pLDDT") {
			sawDetail = true
			break
		}
	}
	if !sawDetail {
		t.Error("cycle events carry no metric detail")
	}
}

// countEvents tallies an event log by kind.
func countEvents(events []Event) map[EventKind]int {
	counts := map[EventKind]int{}
	for _, e := range events {
		counts[e.Kind]++
	}
	return counts
}

// TestPipelineKilledEvents: a faulty campaign logs one pipeline-killed
// event per pipeline its fault accounting counts as killed.
func TestPipelineKilledEvents(t *testing.T) {
	res, err := RunAdaptive(smallTargets(t, 4, 27), faultyConfig(27, 0.3, "none"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults == nil || res.Faults.KilledPipelines == 0 {
		t.Fatal("faulty campaign killed no pipeline; the check below would be vacuous")
	}
	if got := countEvents(res.Events)[EventPipelineKilled]; got != res.Faults.KilledPipelines {
		t.Fatalf("pipeline-killed events %d != killed pipelines %d", got, res.Faults.KilledPipelines)
	}
}

// TestNodeTransferredEvents: a steered split campaign logs one
// node-transferred event per node its controller moved.
func TestNodeTransferredEvents(t *testing.T) {
	targets, err := workload.MinedScreen(7, 4, workload.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastAdaptive(7)
	cfg.Machine = cluster.AmarelCluster(2)
	cfg = splitConfig(t, cfg)
	cfg.Steer = "greedy"
	res, err := RunAdaptive(targets, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.NodeTransfers == 0 {
		t.Fatal("steered campaign moved no node; the check below would be vacuous")
	}
	if got := countEvents(res.Events)[EventNodeTransferred]; got != res.NodeTransfers {
		t.Fatalf("node-transferred events %d != node transfers %d", got, res.NodeTransfers)
	}
}

func TestEventKindStrings(t *testing.T) {
	kinds := []EventKind{EventPipelineStarted, EventCycleConcluded, EventSubPipelineSpawned, EventPipelineFinished,
		EventCampaignDone, EventPipelineKilled, EventNodeTransferred}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || seen[s] {
			t.Fatalf("bad kind string %q", s)
		}
		seen[s] = true
	}
	if EventKind(99).String() == "" {
		t.Fatal("unknown kind has empty string")
	}
}

func TestTaskRecordsInResult(t *testing.T) {
	targets := smallTargets(t, 1, 26)
	res, err := RunControl(targets, fastControl(26))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TaskRecords) != res.TaskCount {
		t.Fatalf("task records %d != task count %d", len(res.TaskRecords), res.TaskCount)
	}
	for _, tr := range res.TaskRecords {
		if tr.State != "DONE" {
			t.Fatalf("task %s in state %s", tr.ID, tr.State)
		}
		if tr.EndedAt < tr.RunAt || tr.RunAt < tr.SetupAt {
			t.Fatalf("task %s timeline inverted", tr.ID)
		}
	}
	if len(res.FinalDesigns) != 1 {
		t.Fatalf("final designs: %d", len(res.FinalDesigns))
	}
	for name, st := range res.FinalDesigns {
		if st.Generation == 0 {
			t.Fatalf("final design %s still generation 0", name)
		}
	}
}
