package core_test

// Differential oracle for the trace recorder's task log. The recorder
// logs each final attempt (the *pilot.Task itself) and builds its record
// only when Tasks is read, long after the attempt ended. The reference
// is the record the runtime used to build eagerly at the final
// transition; every campaign below must produce the same records, field
// for field.

import (
	"cmp"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"impress/internal/campaign"
	"impress/internal/core"
	"impress/internal/fault"
	"impress/internal/pilot"
	"impress/internal/trace"
)

// eagerRecord is the runtime's former per-attempt record builder, kept
// as the reference. Its body is the original one; only the staged
// requeue plan, which pilot keeps unexported, is read through
// stagedResume.
func eagerRecord(t *pilot.Task, state pilot.TaskState, placed bool) trace.TaskRecord {
	faultName := ""
	if state == pilot.StateFailed && t.FaultKind != fault.KindNone {
		faultName = t.FaultKind.String()
	}
	// Saved is the checkpointed progress this attempt banked for its
	// successor — the slice of its run the preemption accounting credits
	// as useful rather than wasted.
	var saved time.Duration
	if resumeFrom, ok := stagedResume(t); ok && resumeFrom > t.ResumeFrom {
		saved = resumeFrom - t.ResumeFrom
	}
	return trace.TaskRecord{
		ID:        t.ID,
		Name:      t.Description.Name,
		Submitted: t.SubmittedAt,
		SetupAt:   t.SetupAt,
		RunAt:     t.RunAt,
		EndedAt:   t.EndedAt,
		Cores:     t.Description.Cores,
		GPUs:      t.Description.GPUs,
		State:     state.String(),
		Placed:    placed,
		Attempt:   t.Attempt,
		Node:      t.Node(),
		Fault:     faultName,
		Pilot:     t.PilotID,
		Pipeline:  t.Tag("pipeline"),
		Stage:     t.Tag("stage"),
		Origin:    t.Origin,
		Resumed:   t.ResumeFrom,
		Saved:     saved,
	}
}

// stagedResume returns the progress the attempt's staged requeue plan
// resumes its successor from, and false when no plan is staged. The plan
// is unexported; reflection reads it without widening pilot's API.
func stagedResume(t *pilot.Task) (time.Duration, bool) {
	plan := reflect.ValueOf(t).Elem().FieldByName("requeue")
	if plan.IsNil() {
		return 0, false
	}
	return time.Duration(plan.Elem().FieldByName("resumeFrom").Int()), true
}

// eagerLog captures eagerRecord at the final transition of every attempt
// that reached an agent queue — the attempts the recorder logs. Attempts
// failed at submission never reach one and are never logged.
type eagerLog struct {
	queued map[*pilot.Task]bool
	placed map[*pilot.Task]bool
	recs   []trace.TaskRecord
}

func (l *eagerLog) observe(t *pilot.Task, s pilot.TaskState) {
	switch {
	case s == pilot.StateScheduling:
		l.queued[t] = true
	case s == pilot.StateExecSetup:
		l.placed[t] = true
	case s.Final() && l.queued[t]:
		l.recs = append(l.recs, eagerRecord(t, s, l.placed[t]))
	}
}

// runWithEagerLog runs one campaign with an eagerLog attached and
// returns its result with the reference records in Tasks order.
func runWithEagerLog(t *testing.T, c campaign.Campaign) (*core.Result, []trace.TaskRecord) {
	t.Helper()
	coord, err := core.NewCoordinator(c.Targets, c.Config)
	if err != nil {
		t.Fatal(err)
	}
	l := &eagerLog{queued: map[*pilot.Task]bool{}, placed: map[*pilot.Task]bool{}}
	res, err := coord.RunObserved(l.observe)
	if err != nil {
		t.Fatalf("%s: %v", c.Name, err)
	}
	slices.SortFunc(l.recs, func(x, y trace.TaskRecord) int {
		if c := cmp.Compare(x.Submitted, y.Submitted); c != 0 {
			return c
		}
		return strings.Compare(x.ID, y.ID)
	})
	return res, l.recs
}

// sameRecords fails unless got and want agree record for record, naming
// the first field that differs.
func sameRecords(t *testing.T, name string, got, want []trace.TaskRecord) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: Tasks() has %d records, the eager reference %d", name, len(got), len(want))
	}
	for i := range got {
		if got[i] == want[i] {
			continue
		}
		g, w := reflect.ValueOf(got[i]), reflect.ValueOf(want[i])
		for f := 0; f < g.NumField(); f++ {
			if g.Field(f).Interface() != w.Field(f).Interface() {
				t.Fatalf("%s: record %d (%s) field %s = %v, eager reference %v",
					name, i, want[i].ID, g.Type().Field(f).Name, g.Field(f), w.Field(f))
			}
		}
	}
}

// buildCell returns the named cell of a scenario.
func buildCell(t *testing.T, scenario string, p campaign.Params, name string) campaign.Campaign {
	t.Helper()
	cs, err := campaign.Build(scenario, p)
	if err != nil {
		t.Fatal(err)
	}
	i := slices.IndexFunc(cs, func(c campaign.Campaign) bool { return c.Name == name })
	if i < 0 {
		t.Fatalf("%s has no cell %s", scenario, name)
	}
	return cs[i]
}

// faultyRetryFleet is an IM-RP campaign on a generated CPU/GPU fleet
// with task faults and node crashes, recovered by plain retry.
func faultyRetryFleet(t *testing.T) campaign.Campaign {
	t.Helper()
	c := buildCell(t, "pair", campaign.Params{Seed: 42}, "imrp/seed42")
	pilots, err := campaign.FleetPilots("cpu:16c0g64m*3+gpu:8c2g32m*2", 42)
	if err != nil {
		t.Fatal(err)
	}
	c.Name = "imrp/fleet+retry/seed42"
	c.Config.Pilots = pilots
	c.Config.Fault = fault.Spec{TaskFailProb: 0.2, NodeMTBF: 12 * time.Hour}
	c.Config.Recovery = "retry"
	return c
}

// coverage names a corner of the record a campaign must exercise.
type coverage struct {
	what string
	ok   func(trace.TaskRecord) bool
}

var (
	tagged      = coverage{"a pipeline-tagged record", func(r trace.TaskRecord) bool { return r.Pipeline != "" && r.Stage != "" }}
	banked      = coverage{"an attempt that banked progress", func(r trace.TaskRecord) bool { return r.Saved > 0 }}
	setupKilled = coverage{"an attempt killed in exec setup", func(r trace.TaskRecord) bool { return r.Placed && r.RunAt == 0 && r.Fault != "" }}
	neverPlaced = coverage{"an attempt that was never placed", func(r trace.TaskRecord) bool { return !r.Placed }}
	retried     = coverage{"a retry", func(r trace.TaskRecord) bool { return r.Attempt > 1 && r.Origin != r.ID }}
)

// TestTasksMatchEagerRecords checks the recorder's lazily built records
// against the eager reference on campaigns that cover every field's
// corner: pipeline tags (pair), evictions that bank checkpointed
// progress and attempts killed in setup (preempt-sweep, chaos-sweep),
// attempts failed while queued (a walltime kill), and retry chains (a
// faulty fleet). No chaos-sweep cell at seed 42 fails a queued attempt,
// so the walltime-kill cell covers that.
func TestTasksMatchEagerRecords(t *testing.T) {
	pair := campaign.Params{Seed: 42}
	one := campaign.Params{Seed: 42, Seeds: 1}
	cases := []struct {
		c      campaign.Campaign
		covers []coverage
	}{
		{buildCell(t, "pair", pair, "imrp/seed42"), []coverage{tagged}},
		{buildCell(t, "pair", pair, "contv/seed42"), []coverage{tagged}},
		{buildCell(t, "preempt-sweep", one, "preempt/kill+preempt/ck15m/seed42"), []coverage{banked, setupKilled}},
		{buildCell(t, "preempt-sweep", one, "preempt/kill+none/ck0/seed42"), []coverage{neverPlaced}},
		{buildCell(t, "chaos-sweep", one, "chaos/retry+none/seed42"), []coverage{setupKilled, retried}},
		{faultyRetryFleet(t), []coverage{retried}},
	}
	for _, tc := range cases {
		res, want := runWithEagerLog(t, tc.c)
		sameRecords(t, tc.c.Name, res.TaskRecords, want)
		for _, cv := range tc.covers {
			if !slices.ContainsFunc(res.TaskRecords, cv.ok) {
				t.Errorf("%s: no record is %s; the case no longer covers it", tc.c.Name, cv.what)
			}
		}
	}
}
