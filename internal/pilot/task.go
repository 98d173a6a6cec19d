// Package pilot reimplements the slice of RADICAL-Pilot that IMPRESS
// builds on (Merzky et al., IEEE TPDS 33(4), 2022): a pilot job acquires a
// resource allocation, boots an agent on it, and the agent schedules and
// executes a stream of heterogeneous tasks (CPU, GPU, mixed) without
// returning to the batch system. The paper's Fig. 1 names the pieces this
// package provides: Pilot Manager, Task Manager, and an Agent composed of
// a Scheduler and an Executor.
//
// The runtime executes on the deterministic discrete-event engine
// (internal/simclock): task payloads compute their results eagerly in real
// time, then their declared resource-phase profile is replayed on the
// virtual timeline. That keeps campaign timelines bit-for-bit reproducible
// while the busy/idle accounting matches what the paper's monitoring
// measured (Figs. 4 and 5).
//
// Placement over several pilots lives here too. Each pilot declares the
// resource classes it serves (PilotDescription.Serves), and the
// TaskManager's one placement rule sends an untargeted task, or a
// resubmission whose pilot is gone, to the first pilot that is not done
// or draining, serves the task's class and has a home node shape that
// fits the request. A task may instead name its pilot
// (TaskDescription.Pilot), and an eviction may name the pilot its work
// resumes on, which is checked for fit only.
package pilot

import (
	"fmt"
	"slices"
	"strconv"
	"time"

	"impress/internal/cluster"
	"impress/internal/fault"
	"impress/internal/simclock"
	"impress/internal/trace"
)

// TaskState is the lifecycle state of a task, following RP's state model
// collapsed to the states that matter for scheduling research. It is 32
// bits wide so that it shares a word with Task's node ID.
type TaskState int32

const (
	// StateNew is a described but unsubmitted task.
	StateNew TaskState = iota
	// StateSubmitted means the TaskManager accepted the task and routed
	// it to a pilot's agent.
	StateSubmitted
	// StateScheduling means the task waits in the agent queue for
	// resources.
	StateScheduling
	// StateExecSetup means the executor is preparing the task sandbox
	// (script creation, filesystem staging — the "Exec setup" band of
	// Fig. 5).
	StateExecSetup
	// StateRunning means the task's payload occupies its allocation.
	StateRunning
	// StateDone is successful completion.
	StateDone
	// StateFailed is payload or launch failure.
	StateFailed
	// StateCanceled is client- or walltime-initiated cancellation.
	StateCanceled
)

// numStates bounds the TaskState values the lookup tables cover.
const numStates = StateCanceled + 1

var stateNames = [numStates]string{
	StateNew:        "NEW",
	StateSubmitted:  "SUBMITTED",
	StateScheduling: "SCHEDULING",
	StateExecSetup:  "EXEC_SETUP",
	StateRunning:    "RUNNING",
	StateDone:       "DONE",
	StateFailed:     "FAILED",
	StateCanceled:   "CANCELED",
}

func (s TaskState) String() string {
	if s >= 0 && s < numStates {
		return stateNames[s]
	}
	return fmt.Sprintf("TaskState(%d)", int(s))
}

// Final reports whether the state is terminal.
func (s TaskState) Final() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// legalNext marks the permitted state machine edges: legalNext[from][to].
var legalNext = [numStates][numStates]bool{
	StateNew:        {StateSubmitted: true},
	StateSubmitted:  {StateScheduling: true, StateCanceled: true, StateFailed: true},
	StateScheduling: {StateExecSetup: true, StateCanceled: true, StateFailed: true},
	StateExecSetup:  {StateRunning: true, StateCanceled: true, StateFailed: true},
	StateRunning:    {StateDone: true, StateFailed: true, StateCanceled: true},
}

func legalTransition(from, to TaskState) bool {
	return from >= 0 && from < numStates && to >= 0 && to < numStates && legalNext[from][to]
}

// Phase is one segment of a task's resource usage profile: for Duration,
// BusyCores cores and BusyGPUs GPUs are actively computing. The classic
// example is AlphaFold: a long CPU-only MSA phase followed by a short GPU
// inference phase, within a single allocation that holds both resource
// types throughout.
type Phase struct {
	Name      string
	Duration  time.Duration
	BusyCores int
	BusyGPUs  int
}

// Result is a completed payload's output: an opaque value for the
// protocol layer plus the phase profile the executor replays on the
// virtual timeline.
type Result struct {
	Value  any
	Phases []Phase
}

// TotalDuration sums the phase durations.
func (r Result) TotalDuration() time.Duration {
	var d time.Duration
	for _, p := range r.Phases {
		d += p.Duration
	}
	return d
}

// ExecContext is what a payload sees when it runs. It is valid only
// during Run: the runtime reuses it for later attempts, so a payload that
// needs a field afterwards copies it.
type ExecContext struct {
	// TaskID identifies the running task.
	TaskID string
	// Now is the virtual time at payload start.
	Now simclock.Time
	// Seed is the task's deterministic random stream seed.
	Seed uint64
	// Cores and GPUs are the granted allocation sizes.
	Cores int
	GPUs  int
}

// Work is a task payload. Run computes the result eagerly (any real
// computation — Gibbs sampling, metric evaluation — happens here) and
// declares the phase profile that determines the task's virtual duration
// and resource busy-ness.
type Work interface {
	Run(ctx *ExecContext) (Result, error)
}

// WorkFunc adapts a function to the Work interface.
type WorkFunc func(ctx *ExecContext) (Result, error)

// Run implements Work.
func (f WorkFunc) Run(ctx *ExecContext) (Result, error) { return f(ctx) }

// TaskDescription declares a task: resource requirements plus payload,
// mirroring RP's TaskDescription.
type TaskDescription struct {
	// Name labels the task for traces ("mpnn", "af_msa", ...).
	Name string
	// Cores, GPUs, MemGB are the allocation request. The allocation is
	// held for the task's whole execution even if phases leave parts of
	// it idle.
	Cores int
	GPUs  int
	MemGB int
	// Work is the payload. Required.
	Work Work
	// Pilot optionally targets a specific pilot by ID when the task
	// manager serves several (heterogeneous placement). Empty leaves the
	// choice to the task manager: the first pilot that is not done or
	// draining, serves the task's ResourceClass and has a home node
	// shape that fits the request.
	Pilot string
	// Tags carries opaque metadata for the client (pipeline id, stage).
	Tags map[string]string
}

// request is the allocation the description asks for.
func (td TaskDescription) request() cluster.Request {
	return cluster.Request{Cores: td.Cores, GPUs: td.GPUs, MemGB: td.MemGB}
}

func (td TaskDescription) validate() error {
	if td.Work == nil {
		return fmt.Errorf("pilot: task %q has no payload", td.Name)
	}
	if td.Cores < 0 || td.GPUs < 0 || td.MemGB < 0 {
		return fmt.Errorf("pilot: task %q has negative resources", td.Name)
	}
	if td.Cores == 0 && td.GPUs == 0 {
		return fmt.Errorf("pilot: task %q requests no resources", td.Name)
	}
	return nil
}

// ResourceClass buckets tasks by the hardware they occupy, the unit of
// placement for heterogeneous multi-pilot campaigns. The paper's ParaFold
// split is exactly this distinction: MSA/ranking/FASTA/metrics stages are
// CPU-class, MPNN sampling and AlphaFold inference are GPU-class.
type ResourceClass int

const (
	// ClassCPU marks tasks that request no GPUs.
	ClassCPU ResourceClass = iota
	// ClassGPU marks tasks that request at least one GPU.
	ClassGPU
)

func (c ResourceClass) String() string {
	switch c {
	case ClassCPU:
		return "cpu"
	case ClassGPU:
		return "gpu"
	default:
		return fmt.Sprintf("ResourceClass(%d)", int(c))
	}
}

// ClassOf derives a task's resource class from its allocation request.
func ClassOf(td TaskDescription) ResourceClass {
	if td.GPUs > 0 {
		return ClassGPU
	}
	return ClassCPU
}

// ServesClass reports whether a pilot serving the classes in serves
// accepts tasks of class c; an empty list serves every class.
func ServesClass(serves []ResourceClass, c ResourceClass) bool {
	return len(serves) == 0 || slices.Contains(serves, c)
}

// Task is a submitted task instance — one execution *attempt* of a
// logical task. Under fault injection a failed attempt may be resubmitted
// by the pilot's recovery policy; the resubmission is a fresh Task that
// shares the original's Origin and carries the next Attempt number.
type Task struct {
	ID          string
	Description TaskDescription
	UID         uint64
	// PilotID records the pilot the task was placed on.
	PilotID string

	// Attempt is the 1-based execution attempt (>1 for resubmissions).
	Attempt int
	// Origin is the logical task identity shared by every attempt: the
	// first attempt's ID.
	Origin string
	// chain is the first attempt's UID: the TaskManager's key for the
	// attempt chain.
	chain uint64
	// FaultKind records what killed this attempt (fault.KindNone while
	// healthy).
	FaultKind fault.Kind
	// ResumeFrom is checkpointed progress carried in from a previous
	// attempt: the executor skips this much of the phase profile, so only
	// post-checkpoint work is re-executed. Zero means attempt-from-zero.
	ResumeFrom time.Duration

	state TaskState
	// node is the ID of the node the attempt is or was last placed on,
	// -1 until then.
	node int32

	// Timeline (virtual time).
	SubmittedAt simclock.Time
	SetupAt     simclock.Time
	RunAt       simclock.Time
	EndedAt     simclock.Time

	// Outcome.
	Result Result
	Err    error

	seed       uint64
	pilot      *Pilot
	exec       *execution // the attempt's execution while it is placed
	avoidNodes []int
	requeue    *requeuePlan
}

// taskID formats a task UID as "task.%06d" without fmt: the UID in
// decimal, zero-padded to six digits. The bytes matter, because
// deriveTaskSeed hashes the ID.
func taskID(uid uint64) string {
	var buf [len("task.") + 20]byte
	b := append(buf[:0], "task."...)
	var digits [20]byte
	d := strconv.AppendUint(digits[:0], uid, 10)
	for i := len(d); i < 6; i++ {
		b = append(b, '0')
	}
	return string(append(b, d...))
}

// requeuePlan is a recovery decision staged on a failing attempt before
// its FAILED transition fires, so observers can distinguish "will be
// resubmitted" from "terminally failed".
type requeuePlan struct {
	delay   time.Duration
	exclude int // node to avoid on the next attempt, -1 for none
	// resumeFrom is the checkpointed progress the next attempt starts
	// from (0 restarts from scratch).
	resumeFrom time.Duration
	// pilotHint routes the resubmission straight to a named pilot
	// (preemptive-shrink transfers resume on the receiver); "" keeps the
	// original routing.
	pilotHint string
	// event is the pending resubmission once recovery schedules it.
	event simclock.Event
}

// WillRetry reports whether the recovery policy has scheduled a
// resubmission for this failed attempt.
func (t *Task) WillRetry() bool { return t.requeue != nil }

// Node returns the ID of the node the attempt is (or was last) placed
// on, or -1 if it never held an allocation.
func (t *Task) Node() int { return int(t.node) }

// State returns the task's current lifecycle state. The core and steer
// tests read it; campaigns observe states through OnState.
func (t *Task) State() TaskState { return t.state }

// Tag returns the tag value for key ("" when absent).
func (t *Task) Tag(key string) string { return t.Description.Tags[key] }

// Record returns the attempt's timeline record. The trace recorder logs
// the final attempt itself and calls Record when it builds a snapshot;
// every field it reads is fixed once the attempt is final (its recovery
// plan is staged before the final transition).
func (t *Task) Record() trace.TaskRecord {
	faultName := ""
	if t.state == StateFailed && t.FaultKind != fault.KindNone {
		faultName = t.FaultKind.String()
	}
	// Saved is the checkpointed progress this attempt banked for its
	// successor — the slice of its run the preemption accounting credits
	// as useful rather than wasted.
	var saved time.Duration
	if t.requeue != nil && t.requeue.resumeFrom > t.ResumeFrom {
		saved = t.requeue.resumeFrom - t.ResumeFrom
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
		State:     t.state.String(),
		Placed:    t.node >= 0,
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
