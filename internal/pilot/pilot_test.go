package pilot

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"impress/internal/cluster"
	"impress/internal/costmodel"
	"impress/internal/fault"
	"impress/internal/simclock"
	"impress/internal/trace"
)

// testCost returns overhead parameters with deterministic, round values
// so tests can assert exact timelines.
func testCost() costmodel.Params {
	p := costmodel.Default()
	p.JitterFrac = 0
	p.BootstrapTime = time.Minute
	p.SetupBase = 10 * time.Second
	p.SetupPerConcur = 0
	p.SetupMax = time.Minute
	return p
}

type harness struct {
	engine *simclock.Engine
	rec    *trace.Recorder
	pilot  *Pilot
	tm     *TaskManager
}

func newHarness(t testing.TB, pd PilotDescription) *harness {
	t.Helper()
	engine := simclock.New()
	rec := trace.NewRecorder(pd.Machine.TotalCores(), pd.Machine.TotalGPUs(), 0)
	pm := NewPilotManager(engine, rec)
	p, err := pm.Submit(pd)
	if err != nil {
		t.Fatal(err)
	}
	return &harness{engine: engine, rec: rec, pilot: p, tm: NewTaskManager(engine, p)}
}

func defaultPD() PilotDescription {
	return PilotDescription{Machine: cluster.AmarelNode(), Cost: testCost(), Seed: 1}
}

func sleepWork(name string, d time.Duration, cores, gpus int) Work {
	return WorkFunc(func(ctx *ExecContext) (Result, error) {
		return Result{
			Value:  name,
			Phases: []Phase{{Name: "compute", Duration: d, BusyCores: cores, BusyGPUs: gpus}},
		}, nil
	})
}

func TestTaskLifecycleTimeline(t *testing.T) {
	h := newHarness(t, defaultPD())
	var states []TaskState
	h.tm.OnState(func(_ *Task, s TaskState) { states = append(states, s) })
	task := h.tm.MustSubmit(TaskDescription{
		Name: "t", Cores: 4, Work: sleepWork("x", 10*time.Minute, 4, 0),
	})
	h.engine.Run()

	if task.State() != StateDone {
		t.Fatalf("state = %v, want DONE", task.State())
	}
	want := []TaskState{StateSubmitted, StateScheduling, StateExecSetup, StateRunning, StateDone}
	if len(states) != len(want) {
		t.Fatalf("states = %v", states)
	}
	for i := range want {
		if states[i] != want[i] {
			t.Fatalf("states = %v, want %v", states, want)
		}
	}
	// Timeline: bootstrap 1m, setup 10s, run 10m.
	if task.SetupAt != simclock.Time(time.Minute) {
		t.Errorf("SetupAt = %v, want 1m", task.SetupAt)
	}
	if task.RunAt != simclock.Time(time.Minute+10*time.Second) {
		t.Errorf("RunAt = %v", task.RunAt)
	}
	if task.EndedAt != simclock.Time(11*time.Minute+10*time.Second) {
		t.Errorf("EndedAt = %v", task.EndedAt)
	}
	if task.Result.Value != "x" {
		t.Errorf("Result = %v", task.Result.Value)
	}
}

func TestResourcesReleasedAfterCompletion(t *testing.T) {
	h := newHarness(t, defaultPD())
	h.tm.MustSubmit(TaskDescription{Name: "a", Cores: 28, GPUs: 4, Work: sleepWork("a", time.Hour, 28, 4)})
	h.engine.Run()
	c := h.pilot.Cluster()
	if c.FreeCores() != 28 || c.FreeGPUs() != 4 {
		t.Fatalf("resources leaked: %d cores, %d GPUs free", c.FreeCores(), c.FreeGPUs())
	}
}

func TestFIFOBlocksWithoutBackfill(t *testing.T) {
	pd := defaultPD()
	pd.Policy = "fifo"
	h := newHarness(t, pd)
	// Big task first (fills the node), then a huge task that can never
	// run concurrently, then a tiny task that *could* run but must wait
	// behind the huge one under strict FIFO.
	big := h.tm.MustSubmit(TaskDescription{Name: "big", Cores: 20, Work: sleepWork("b", time.Hour, 20, 0)})
	huge := h.tm.MustSubmit(TaskDescription{Name: "huge", Cores: 28, Work: sleepWork("h", time.Hour, 28, 0)})
	tiny := h.tm.MustSubmit(TaskDescription{Name: "tiny", Cores: 1, Work: sleepWork("t", time.Minute, 1, 0)})
	h.engine.Run()
	if big.State() != StateDone || huge.State() != StateDone || tiny.State() != StateDone {
		t.Fatal("tasks did not finish")
	}
	if tiny.RunAt < huge.RunAt {
		t.Fatalf("tiny ran before huge under strict FIFO: tiny %v huge %v", tiny.RunAt, huge.RunAt)
	}
}

func TestBackfillLetsSmallTasksJump(t *testing.T) {
	pd := defaultPD()
	pd.Policy = "backfill"
	h := newHarness(t, pd)
	big := h.tm.MustSubmit(TaskDescription{Name: "big", Cores: 20, Work: sleepWork("b", time.Hour, 20, 0)})
	huge := h.tm.MustSubmit(TaskDescription{Name: "huge", Cores: 28, Work: sleepWork("h", time.Hour, 28, 0)})
	tiny := h.tm.MustSubmit(TaskDescription{Name: "tiny", Cores: 1, Work: sleepWork("t", time.Minute, 1, 0)})
	h.engine.Run()
	if tiny.RunAt >= huge.RunAt {
		t.Fatalf("backfill did not let tiny jump: tiny %v huge %v", tiny.RunAt, huge.RunAt)
	}
	_ = big
}

func TestConcurrentExecutionOverlaps(t *testing.T) {
	h := newHarness(t, defaultPD())
	a := h.tm.MustSubmit(TaskDescription{Name: "a", Cores: 8, Work: sleepWork("a", time.Hour, 8, 0)})
	b := h.tm.MustSubmit(TaskDescription{Name: "b", Cores: 8, Work: sleepWork("b", time.Hour, 8, 0)})
	h.engine.Run()
	// Both should have run concurrently: b starts before a ends.
	if b.RunAt >= a.EndedAt {
		t.Fatalf("no overlap: a ended %v, b started %v", a.EndedAt, b.RunAt)
	}
}

func TestBusyAccountingMultiPhase(t *testing.T) {
	// An AlphaFold-like task: 2h CPU-only phase (8 cores busy, GPU idle
	// but held), then 30m GPU phase (2 cores + 1 GPU busy).
	h := newHarness(t, defaultPD())
	work := WorkFunc(func(ctx *ExecContext) (Result, error) {
		return Result{Phases: []Phase{
			{Name: "msa", Duration: 2 * time.Hour, BusyCores: 8, BusyGPUs: 0},
			{Name: "inference", Duration: 30 * time.Minute, BusyCores: 2, BusyGPUs: 1},
		}}, nil
	})
	task := h.tm.MustSubmit(TaskDescription{Name: "af", Cores: 8, GPUs: 1, Work: work})
	h.engine.Run()
	if task.State() != StateDone {
		t.Fatalf("state %v, err %v", task.State(), task.Err)
	}
	// During the MSA phase, 8 cores busy and 0 GPUs.
	mid := task.RunAt.Add(time.Hour)
	if got := trace.Sample(h.rec.CPUSeries(), mid); got != 8 {
		t.Errorf("busy cores during MSA = %d, want 8", got)
	}
	if got := trace.Sample(h.rec.GPUSeries(), mid); got != 0 {
		t.Errorf("busy GPUs during MSA = %d, want 0", got)
	}
	// During inference, 2 cores and 1 GPU.
	infMid := task.RunAt.Add(2*time.Hour + 15*time.Minute)
	if got := trace.Sample(h.rec.CPUSeries(), infMid); got != 2 {
		t.Errorf("busy cores during inference = %d, want 2", got)
	}
	if got := trace.Sample(h.rec.GPUSeries(), infMid); got != 1 {
		t.Errorf("busy GPUs during inference = %d, want 1", got)
	}
	// After completion, nothing is busy.
	if got := trace.Sample(h.rec.CPUSeries(), task.EndedAt.Add(time.Second)); got != 0 {
		t.Errorf("busy cores after end = %d", got)
	}
}

func TestPayloadErrorFailsTask(t *testing.T) {
	h := newHarness(t, defaultPD())
	boom := errors.New("boom")
	task := h.tm.MustSubmit(TaskDescription{
		Name: "bad", Cores: 1,
		Work: WorkFunc(func(*ExecContext) (Result, error) { return Result{}, boom }),
	})
	h.engine.Run()
	if task.State() != StateFailed || !errors.Is(task.Err, boom) {
		t.Fatalf("state %v err %v", task.State(), task.Err)
	}
	if h.pilot.Cluster().FreeCores() != 28 {
		t.Fatal("failed task leaked resources")
	}
}

func TestInvalidPhasesFailTask(t *testing.T) {
	h := newHarness(t, defaultPD())
	task := h.tm.MustSubmit(TaskDescription{
		Name: "over", Cores: 2,
		Work: WorkFunc(func(*ExecContext) (Result, error) {
			return Result{Phases: []Phase{{Name: "x", Duration: time.Minute, BusyCores: 10}}}, nil
		}),
	})
	h.engine.Run()
	if task.State() != StateFailed {
		t.Fatalf("over-busy phases accepted: %v", task.State())
	}
}

func TestImpossibleRequestFailsFast(t *testing.T) {
	h := newHarness(t, defaultPD())
	task := h.tm.MustSubmit(TaskDescription{Name: "toobig", Cores: 64, Work: sleepWork("x", time.Minute, 1, 0)})
	if task.State() != StateFailed {
		t.Fatalf("impossible request not failed: %v", task.State())
	}
}

func TestSubmitValidation(t *testing.T) {
	h := newHarness(t, defaultPD())
	if _, err := h.tm.Submit(TaskDescription{Name: "nowork", Cores: 1}); err == nil {
		t.Error("nil Work accepted")
	}
	if _, err := h.tm.Submit(TaskDescription{Name: "zero", Work: sleepWork("x", time.Minute, 0, 0)}); err == nil {
		t.Error("zero-resource task accepted")
	}
	if _, err := h.tm.Submit(TaskDescription{Name: "neg", Cores: -1, Work: sleepWork("x", time.Minute, 0, 0)}); err == nil {
		t.Error("negative-resource task accepted")
	}
}

func TestCancelQueuedTask(t *testing.T) {
	h := newHarness(t, defaultPD())
	blocker := h.tm.MustSubmit(TaskDescription{Name: "blocker", Cores: 28, Work: sleepWork("b", time.Hour, 28, 0)})
	queued := h.tm.MustSubmit(TaskDescription{Name: "queued", Cores: 28, Work: sleepWork("q", time.Hour, 28, 0)})
	// Cancel the queued task once the blocker is running.
	h.engine.After(30*time.Minute, func() { h.tm.Cancel(queued) })
	h.engine.Run()
	if blocker.State() != StateDone {
		t.Fatalf("blocker state %v", blocker.State())
	}
	if queued.State() != StateCanceled {
		t.Fatalf("queued state %v", queued.State())
	}
}

func TestCancelRunningTaskUnwindsBusy(t *testing.T) {
	h := newHarness(t, defaultPD())
	task := h.tm.MustSubmit(TaskDescription{Name: "victim", Cores: 8, GPUs: 2, Work: sleepWork("v", 10*time.Hour, 8, 2)})
	h.engine.After(2*time.Hour, func() { h.tm.Cancel(task) })
	h.engine.Run()
	if task.State() != StateCanceled {
		t.Fatalf("state %v", task.State())
	}
	if h.pilot.Cluster().FreeCores() != 28 || h.pilot.Cluster().FreeGPUs() != 4 {
		t.Fatal("cancel leaked resources")
	}
	end := task.EndedAt.Add(time.Minute)
	if trace.Sample(h.rec.CPUSeries(), end) != 0 || trace.Sample(h.rec.GPUSeries(), end) != 0 {
		t.Fatal("cancel left busy counters applied")
	}
	// Cancelling again is a no-op.
	h.tm.Cancel(task)
}

func TestCancelDuringSetup(t *testing.T) {
	pd := defaultPD()
	pd.Cost.SetupBase = 5 * time.Minute
	h := newHarness(t, pd)
	task := h.tm.MustSubmit(TaskDescription{Name: "s", Cores: 4, Work: sleepWork("s", time.Hour, 4, 0)})
	// Bootstrap 1m; cancel at 3m — mid-setup.
	h.engine.After(3*time.Minute, func() { h.tm.Cancel(task) })
	h.engine.Run()
	if task.State() != StateCanceled {
		t.Fatalf("state %v", task.State())
	}
	if h.pilot.Cluster().FreeCores() != 28 {
		t.Fatal("setup cancel leaked cores")
	}
}

func TestWalltimeTerminatesPilot(t *testing.T) {
	pd := defaultPD()
	pd.Fault.Walltime = 2 * time.Hour
	h := newHarness(t, pd)
	long := h.tm.MustSubmit(TaskDescription{Name: "long", Cores: 28, Work: sleepWork("l", 10*time.Hour, 28, 0)})
	queued := h.tm.MustSubmit(TaskDescription{Name: "waiting", Cores: 28, Work: sleepWork("w", time.Hour, 28, 0)})
	h.engine.Run()
	for _, task := range []*Task{long, queued} {
		if task.State() != StateFailed || task.FaultKind != fault.KindWalltime {
			t.Fatalf("states: long %v/%v queued %v/%v", long.State(), long.FaultKind, queued.State(), queued.FaultKind)
		}
	}
	if h.pilot.State() != PilotDone {
		t.Fatalf("pilot state %v", h.pilot.State())
	}
	// Submissions after pilot end fail immediately.
	late := h.tm.MustSubmit(TaskDescription{Name: "late", Cores: 1, Work: sleepWork("x", time.Minute, 1, 0)})
	if late.State() != StateFailed {
		t.Fatalf("late submission state %v", late.State())
	}
}

func TestTasksBeforeBootstrapWait(t *testing.T) {
	h := newHarness(t, defaultPD())
	task := h.tm.MustSubmit(TaskDescription{Name: "early", Cores: 1, Work: sleepWork("x", time.Minute, 1, 0)})
	if task.State() != StateScheduling {
		t.Fatalf("pre-bootstrap state %v", task.State())
	}
	h.engine.Run()
	if task.SetupAt < simclock.Time(time.Minute) {
		t.Fatalf("task setup before bootstrap completed: %v", task.SetupAt)
	}
}

func TestSetupContentionIncreasesSetupTime(t *testing.T) {
	pd := defaultPD()
	pd.Cost.SetupBase = 10 * time.Second
	pd.Cost.SetupPerConcur = 30 * time.Second
	pd.Cost.SetupMax = time.Hour
	h := newHarness(t, pd)
	a := h.tm.MustSubmit(TaskDescription{Name: "a", Cores: 1, Work: sleepWork("a", time.Hour, 1, 0)})
	b := h.tm.MustSubmit(TaskDescription{Name: "b", Cores: 1, Work: sleepWork("b", time.Hour, 1, 0)})
	h.engine.Run()
	if sa, sb := a.RunAt.Sub(a.SetupAt), b.RunAt.Sub(b.SetupAt); sb <= sa {
		t.Fatalf("second concurrent setup (%v) not slower than first (%v)", sb, sa)
	}
}

func TestPhaseBreakdownRecorded(t *testing.T) {
	h := newHarness(t, defaultPD())
	h.tm.MustSubmit(TaskDescription{Name: "t", Cores: 4, Work: sleepWork("x", 30*time.Minute, 4, 0)})
	h.engine.Run()
	phases := h.rec.Phases()
	if phases[trace.PhaseBootstrap] != time.Minute {
		t.Errorf("bootstrap = %v", phases[trace.PhaseBootstrap])
	}
	if phases[trace.PhaseExecSetup] != 10*time.Second {
		t.Errorf("exec setup = %v", phases[trace.PhaseExecSetup])
	}
	if phases[trace.PhaseRunning] != 30*time.Minute {
		t.Errorf("running = %v", phases[trace.PhaseRunning])
	}
}

func TestCallbackSubmissionChains(t *testing.T) {
	// A client that reacts to completion by submitting the next stage —
	// the pipeline pattern — must work from within callbacks.
	h := newHarness(t, defaultPD())
	var second *Task
	h.tm.OnState(func(task *Task, s TaskState) {
		if s == StateDone && task.Description.Name == "first" && second == nil {
			second = h.tm.MustSubmit(TaskDescription{Name: "second", Cores: 1, Work: sleepWork("2", time.Minute, 1, 0)})
		}
	})
	first := h.tm.MustSubmit(TaskDescription{Name: "first", Cores: 1, Work: sleepWork("1", time.Minute, 1, 0)})
	h.engine.Run()
	if second == nil || second.State() != StateDone {
		t.Fatalf("chained task not executed: %+v", second)
	}
	if second.RunAt <= first.EndedAt {
		t.Fatal("second task ran before first completed")
	}
}

func TestDeterministicTimelines(t *testing.T) {
	run := func() []simclock.Time {
		engine := simclock.New()
		rec := trace.NewRecorder(28, 4, 0)
		pm := NewPilotManager(engine, rec)
		pd := defaultPD()
		pd.Cost.JitterFrac = 0.1 // jitter on, but seeded
		p, err := pm.Submit(pd)
		if err != nil {
			t.Fatal(err)
		}
		tm := NewTaskManager(engine, p)
		var tasks []*Task
		for i := 0; i < 20; i++ {
			tasks = append(tasks, tm.MustSubmit(TaskDescription{
				Name: "t", Cores: 5, GPUs: i % 2, Work: sleepWork("x", time.Duration(i+1)*7*time.Minute, 5, i%2),
			}))
		}
		engine.Run()
		var ends []simclock.Time
		for _, task := range tasks {
			ends = append(ends, task.EndedAt)
		}
		return ends
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("timeline diverged at task %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestStateStringAndFinal(t *testing.T) {
	if StateDone.String() != "DONE" || StateScheduling.String() != "SCHEDULING" {
		t.Fatal("state names wrong")
	}
	if !StateDone.Final() || !StateFailed.Final() || !StateCanceled.Final() {
		t.Fatal("terminal states not final")
	}
	if StateRunning.Final() || StateNew.Final() {
		t.Fatal("non-terminal states reported final")
	}
	if TaskState(99).String() == "" {
		t.Fatal("unknown state has empty name")
	}
	if PilotActive.String() != "ACTIVE" || PilotState(9).String() == "" {
		t.Fatal("pilot state names wrong")
	}
}

// TestStateTables pins the array-indexed lookups: every name, the
// fallback for out-of-range values, and exactly the state machine's
// edges (checked over a range wider than the defined states).
func TestStateTables(t *testing.T) {
	names := []string{"NEW", "SUBMITTED", "SCHEDULING", "EXEC_SETUP", "RUNNING", "DONE", "FAILED", "CANCELED"}
	for i, want := range names {
		if got := TaskState(i).String(); got != want {
			t.Fatalf("TaskState(%d).String() = %q, want %q", i, got, want)
		}
	}
	for _, s := range []TaskState{-1, 8, 99} {
		if got, want := s.String(), fmt.Sprintf("TaskState(%d)", int(s)); got != want {
			t.Fatalf("String() = %q, want %q", got, want)
		}
	}
	edges := map[[2]TaskState]bool{
		{StateNew, StateSubmitted}:        true,
		{StateSubmitted, StateScheduling}: true, {StateSubmitted, StateCanceled}: true, {StateSubmitted, StateFailed}: true,
		{StateScheduling, StateExecSetup}: true, {StateScheduling, StateCanceled}: true, {StateScheduling, StateFailed}: true,
		{StateExecSetup, StateRunning}: true, {StateExecSetup, StateCanceled}: true, {StateExecSetup, StateFailed}: true,
		{StateRunning, StateDone}: true, {StateRunning, StateFailed}: true, {StateRunning, StateCanceled}: true,
	}
	for from := TaskState(-2); from < 10; from++ {
		for to := TaskState(-2); to < 10; to++ {
			if got, want := legalTransition(from, to), edges[[2]TaskState{from, to}]; got != want {
				t.Fatalf("legalTransition(%v, %v) = %v, want %v", from, to, got, want)
			}
		}
	}
}

func TestAggregateTaskTimeMatchesWork(t *testing.T) {
	h := newHarness(t, defaultPD())
	for i := 0; i < 4; i++ {
		h.tm.MustSubmit(TaskDescription{Name: "t", Cores: 7, Work: sleepWork("x", time.Hour, 7, 0)})
	}
	h.engine.Run()
	h.rec.Close(h.engine.Now())
	if got := h.rec.AggregateTaskTime(); got != 4*time.Hour {
		t.Fatalf("AggregateTaskTime = %v, want 4h", got)
	}
	// All four ran concurrently: makespan ≈ bootstrap + setup + 1h,
	// far below the aggregate.
	if h.rec.Makespan() > 90*time.Minute {
		t.Fatalf("makespan = %v, expected concurrent execution", h.rec.Makespan())
	}
}

func TestTaskTagsAndSeeds(t *testing.T) {
	h := newHarness(t, defaultPD())
	a := h.tm.MustSubmit(TaskDescription{
		Name: "a", Cores: 1, Work: sleepWork("a", time.Minute, 1, 0),
		Tags: map[string]string{"pipeline": "p1"},
	})
	b := h.tm.MustSubmit(TaskDescription{Name: "b", Cores: 1, Work: sleepWork("b", time.Minute, 1, 0)})
	if a.Tag("pipeline") != "p1" || a.Tag("missing") != "" {
		t.Fatal("tags broken")
	}
	if a.Seed() == b.Seed() {
		t.Fatal("tasks share seeds")
	}
}

func TestExecContextContents(t *testing.T) {
	h := newHarness(t, defaultPD())
	var got ExecContext
	h.tm.MustSubmit(TaskDescription{
		Name: "ctx", Cores: 3, GPUs: 2,
		Work: WorkFunc(func(ctx *ExecContext) (Result, error) {
			got = *ctx
			return Result{Phases: []Phase{{Name: "p", Duration: time.Minute, BusyCores: 3, BusyGPUs: 2}}}, nil
		}),
	})
	h.engine.Run()
	if got.Cores != 3 || got.GPUs != 2 || got.TaskID == "" || got.Now == 0 {
		t.Fatalf("ExecContext = %+v", got)
	}
}

// TestTaskIDsMatchSprintf pins the fmt-free ID formatter to the
// "task.%06d" bytes that deriveTaskSeed hashes, across the padding
// boundary and up to the widest UID.
func TestTaskIDsMatchSprintf(t *testing.T) {
	for _, uid := range []uint64{1, 999999, 1000000, 1 << 32, math.MaxUint64} {
		if got, want := taskID(uid), fmt.Sprintf("task.%06d", uid); got != want {
			t.Errorf("taskID(%d) = %q, want %q", uid, got, want)
		}
	}
}

// TestTaskManagerGetByUID checks that every submitted attempt is found
// by its UID, and that UIDs outside the table are not.
func TestTaskManagerGetByUID(t *testing.T) {
	h := newHarness(t, defaultPD())
	var tasks []*Task
	for i := 0; i < 3; i++ {
		tasks = append(tasks, h.tm.MustSubmit(TaskDescription{Name: "t", Cores: 1, Work: sleepWork("x", time.Minute, 1, 0)}))
	}
	for _, task := range tasks {
		if got, ok := h.tm.Get(task.UID); !ok || got != task {
			t.Fatalf("Get(%d) = %v, %v; want %s", task.UID, got, ok, task.ID)
		}
	}
	for _, uid := range []uint64{0, 4} {
		if got, ok := h.tm.Get(uid); ok {
			t.Fatalf("Get(%d) found %s", uid, got.ID)
		}
	}
}

// TestSubmitPlaceFinishAllocations fences the runtime's per-task cost: one
// task submitted, placed, run and finished allocates the task, its ID, its
// ledger allocation, its execution, its events slice, and one engine
// closure each for setup, phase and done. A payload that allocates nothing
// keeps the count to the runtime's own.
func TestSubmitPlaceFinishAllocations(t *testing.T) {
	h := newHarness(t, defaultPD())
	h.engine.Run() // bootstrap the pilot
	res := Result{Phases: []Phase{{Name: "compute", Duration: time.Minute, BusyCores: 4}}}
	td := TaskDescription{Name: "t", Cores: 4, Work: WorkFunc(func(*ExecContext) (Result, error) { return res, nil })}
	const bound = 8
	if avg := testing.AllocsPerRun(500, func() {
		h.tm.MustSubmit(td)
		h.engine.Run()
	}); avg > bound {
		t.Fatalf("submit, place and finish allocate %.0f objects per task, want at most %d", avg, bound)
	}
}

func BenchmarkSchedulerThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		engine := simclock.New()
		pm := NewPilotManager(engine, nil)
		p, _ := pm.Submit(defaultPD())
		tm := NewTaskManager(engine, p)
		for j := 0; j < 500; j++ {
			tm.MustSubmit(TaskDescription{Name: "t", Cores: 4, GPUs: j % 2, Work: sleepWork("x", time.Duration(j%13+1)*time.Minute, 4, j%2)})
		}
		engine.Run()
	}
}
