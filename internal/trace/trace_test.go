package trace

import (
	"math"
	"testing"
	"time"

	"impress/internal/simclock"
)

func hour(h float64) simclock.Time { return simclock.FromHours(h) }

func TestUtilizationIntegral(t *testing.T) {
	// 28 cores: 8 busy for the first hour, 16 busy for the second,
	// idle for the third. Average = (8 + 16 + 0) / (3 * 28).
	r := NewRecorder(28, 4, 0)
	r.AddBusy(0, 8, 0)
	r.AddBusy(hour(1), 8, 0) // now 16
	r.AddBusy(hour(2), -16, 0)
	r.Close(hour(3))
	want := (8.0 + 16.0) / (3 * 28)
	if got := r.CPUUtilization(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("CPU utilization = %v, want %v", got, want)
	}
	if got := r.GPUUtilization(); got != 0 {
		t.Fatalf("GPU utilization = %v, want 0", got)
	}
	if got := r.BusyCoreHours(); math.Abs(got-24) > 1e-9 {
		t.Fatalf("BusyCoreHours = %v, want 24", got)
	}
}

func TestGPUAccounting(t *testing.T) {
	r := NewRecorder(28, 4, 0)
	r.AddBusy(0, 0, 2)
	r.AddBusy(hour(2), 0, -2)
	r.Close(hour(4))
	if got := r.GPUUtilization(); math.Abs(got-0.25) > 1e-9 {
		t.Fatalf("GPU utilization = %v, want 0.25", got)
	}
	if got := r.BusyGPUHours(); math.Abs(got-4) > 1e-9 {
		t.Fatalf("BusyGPUHours = %v", got)
	}
}

func TestOverCapacityPanics(t *testing.T) {
	r := NewRecorder(4, 1, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for busy > capacity")
		}
	}()
	r.AddBusy(0, 5, 0)
}

func TestResizeTracksPeakCapacity(t *testing.T) {
	r := NewRecorder(28, 4, 0)
	// A transfer between two pilots of one campaign is net zero.
	r.Resize(-28, -4)
	r.Resize(28, 4)
	if r.TotalCores() != 28 || r.TotalGPUs() != 4 {
		t.Fatalf("net-zero transfer moved capacity to %d cores, %d GPUs", r.TotalCores(), r.TotalGPUs())
	}
	// A granted node raises the bound AddBusy checks against.
	r.Resize(28, 4)
	r.AddBusy(0, 56, 8)
	if r.TotalCores() != 56 || r.TotalGPUs() != 8 {
		t.Fatalf("grant left capacity at %d cores, %d GPUs", r.TotalCores(), r.TotalGPUs())
	}
	// Taking the node back keeps the peak as the utilization base.
	r.AddBusy(hour(1), -56, -8)
	r.Resize(-28, -4)
	r.Close(hour(2))
	if got := r.CPUUtilization(); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("CPU utilization = %v, want 0.5", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for negative held capacity")
		}
	}()
	r.Resize(-56, 0)
}

func TestNegativeBusyPanics(t *testing.T) {
	r := NewRecorder(4, 1, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for busy < 0")
		}
	}()
	r.AddBusy(0, -1, 0)
}

func TestNonMonotonePanics(t *testing.T) {
	r := NewRecorder(4, 1, 0)
	r.AddBusy(hour(1), 1, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for time going backwards")
		}
	}()
	r.AddBusy(hour(0.5), 1, 0)
}

func TestSameTimestampCoalesces(t *testing.T) {
	r := NewRecorder(8, 1, 0)
	r.AddBusy(hour(1), 2, 0)
	r.AddBusy(hour(1), 3, 0)
	s := r.CPUSeries()
	// initial zero point + one coalesced point
	if len(s) != 2 || s[1].Value != 5 {
		t.Fatalf("series = %+v", s)
	}
}

func TestPhases(t *testing.T) {
	r := NewRecorder(4, 1, 0)
	r.AddPhase(PhaseBootstrap, 4*time.Minute)
	r.AddPhase(PhaseExecSetup, time.Minute)
	r.AddPhase(PhaseExecSetup, 2*time.Minute)
	p := r.Phases()
	if p[PhaseBootstrap] != 4*time.Minute || p[PhaseExecSetup] != 3*time.Minute {
		t.Fatalf("phases = %v", p)
	}
	// Returned map is a copy.
	p[PhaseBootstrap] = 0
	if r.Phases()[PhaseBootstrap] != 4*time.Minute {
		t.Fatal("Phases exposed internal map")
	}
}

func TestNegativePhasePanics(t *testing.T) {
	r := NewRecorder(4, 1, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	r.AddPhase(PhaseRunning, -time.Second)
}

func TestTaskRecordsAndAggregateTime(t *testing.T) {
	r := NewRecorder(4, 1, 0)
	r.AddTask(TaskRecord{ID: "b", Submitted: hour(0.5), SetupAt: hour(0.6), RunAt: hour(0.7), EndedAt: hour(1.7)})
	r.AddTask(TaskRecord{ID: "a", Submitted: hour(0), SetupAt: hour(0.1), RunAt: hour(0.2), EndedAt: hour(1.2)})
	tasks := r.Tasks()
	if tasks[0].ID != "a" || tasks[1].ID != "b" {
		t.Fatal("tasks not sorted by submission")
	}
	if got := r.AggregateTaskTime(); got != 2*time.Hour {
		t.Fatalf("AggregateTaskTime = %v, want 2h", got)
	}
	if tasks[0].Wait() != 6*time.Minute {
		t.Fatalf("Wait = %v", tasks[0].Wait())
	}
	if tasks[0].Setup() != 6*time.Minute {
		t.Fatalf("Setup = %v", tasks[0].Setup())
	}
	if tasks[0].Run() != time.Hour {
		t.Fatalf("Run = %v", tasks[0].Run())
	}
}

func TestMakespanTracksEnd(t *testing.T) {
	r := NewRecorder(4, 1, 0)
	r.AddBusy(hour(1), 1, 0)
	r.AddBusy(hour(2), -1, 0)
	if r.Makespan() != 2*time.Hour {
		t.Fatalf("Makespan = %v", r.Makespan())
	}
	r.Close(hour(5))
	if r.Makespan() != 5*time.Hour {
		t.Fatalf("Makespan after Close = %v", r.Makespan())
	}
}

func TestAddBusyAfterClosePanics(t *testing.T) {
	r := NewRecorder(4, 1, 0)
	r.Close(hour(1))
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	r.AddBusy(hour(2), 1, 0)
}

func TestSampleAndResample(t *testing.T) {
	series := []Point{{T: 0, Value: 0}, {T: hour(1), Value: 10}, {T: hour(2), Value: 4}}
	if Sample(series, hour(0.5)) != 0 {
		t.Fatal("Sample before first step wrong")
	}
	if Sample(series, hour(1)) != 10 || Sample(series, hour(1.5)) != 10 {
		t.Fatal("Sample mid-step wrong")
	}
	if Sample(series, hour(99)) != 4 {
		t.Fatal("Sample after last step wrong")
	}
	// Samples land at t = 0, 0.5h, 1h, 1.5h, 2h.
	rs := Resample(series, 0, hour(2), 5)
	want := []float64{0, 0, 10, 10, 4}
	for i := range want {
		if rs[i] != want[i] {
			t.Fatalf("Resample = %v, want %v", rs, want)
		}
	}
	one := Resample(series, 0, hour(2), 1)
	if len(one) != 1 {
		t.Fatal("Resample n=1 wrong length")
	}
}

func TestResamplePanicsOnBadN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Resample(nil, 0, hour(1), 0)
}

func TestZeroCapacityGPURecorder(t *testing.T) {
	r := NewRecorder(4, 0, 0)
	r.AddBusy(0, 1, 0)
	r.Close(hour(1))
	if r.GPUUtilization() != 0 {
		t.Fatal("GPU utilization on zero-GPU recorder should be 0")
	}
}

func TestEmptySpanUtilization(t *testing.T) {
	r := NewRecorder(4, 2, 0)
	if r.CPUUtilization() != 0 || r.GPUUtilization() != 0 {
		t.Fatal("utilization of empty span should be 0")
	}
}

func TestQueueDepthSeries(t *testing.T) {
	r := NewRecorder(8, 1, 0)
	r.SetQueueDepth(0, hour(1), 3)
	r.SetQueueDepth(0, hour(2), 3) // unchanged: no new point
	r.SetQueueDepth(0, hour(3), 1)
	r.SetQueueDepth(2, hour(3), 5) // sparse pilot index grows the slice
	s := r.QueueSeries(0)
	if len(s) != 2 || s[0] != (Point{T: hour(1), Value: 3}) || s[1] != (Point{T: hour(3), Value: 1}) {
		t.Fatalf("queue series = %+v", s)
	}
	if r.QueuePilots() != 3 {
		t.Fatalf("QueuePilots = %d, want 3", r.QueuePilots())
	}
	if got := r.QueueSeries(1); got != nil {
		t.Fatalf("pilot 1 series = %+v, want nil", got)
	}
	if got := r.QueueSeries(9); got != nil {
		t.Fatalf("out-of-range pilot series = %+v, want nil", got)
	}
	// The returned series is a copy.
	s[0].Value = 99
	if r.QueueSeries(0)[0].Value != 3 {
		t.Fatal("QueueSeries exposed internal slice")
	}
}

func TestQueueDepthSameTimestampCoalesces(t *testing.T) {
	r := NewRecorder(8, 1, 0)
	r.SetQueueDepth(0, hour(1), 2)
	r.SetQueueDepth(0, hour(1), 4)
	s := r.QueueSeries(0)
	if len(s) != 1 || s[0].Value != 4 {
		t.Fatalf("series = %+v", s)
	}
}

func TestQueueDepthSampleResample(t *testing.T) {
	r := NewRecorder(8, 1, 0)
	r.SetQueueDepth(0, 0, 0)
	r.SetQueueDepth(0, hour(1), 6)
	r.SetQueueDepth(0, hour(2), 2)
	s := r.QueueSeries(0)
	if Sample(s, hour(1.5)) != 6 {
		t.Fatalf("Sample = %v, want 6", Sample(s, hour(1.5)))
	}
	rs := Resample(s, 0, hour(2), 5)
	want := []float64{0, 0, 6, 6, 2}
	for i := range want {
		if rs[i] != want[i] {
			t.Fatalf("Resample = %v, want %v", rs, want)
		}
	}
}

func TestQueueDepthNegativePilotPanics(t *testing.T) {
	r := NewRecorder(8, 1, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for a negative pilot ordinal")
		}
	}()
	r.SetQueueDepth(-1, hour(1), 1)
}

func TestQueueDepthAfterClosePanics(t *testing.T) {
	r := NewRecorder(8, 1, 0)
	r.Close(hour(1))
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for SetQueueDepth after Close")
		}
	}()
	r.SetQueueDepth(0, hour(2), 1)
}

func TestQueueDepthExtendsMakespan(t *testing.T) {
	r := NewRecorder(8, 1, 0)
	r.SetQueueDepth(0, hour(3), 1)
	if r.Makespan() != 3*time.Hour {
		t.Fatalf("Makespan = %v, want 3h", r.Makespan())
	}
}
