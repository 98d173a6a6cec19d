// Package telemetry is the deterministic, virtual-time observability
// layer. It collects instant events (crashes, outages, maintenance
// windows, node transfers, pipeline kills, steering decisions), a
// counter/gauge metrics registry maintained incrementally like the trace
// recorder's busy-series, and steering-tick logs, and exports the whole
// task timeline in Chrome Trace Event Format (chrome.go) plus a
// critical-path analysis over the recorded spans (critpath.go).
//
// The layer hangs off a nil-able *Recorder: every method is safe on a
// nil receiver and returns immediately, so runs with telemetry disabled
// take a single nil-check per call site — byte-identical traces, zero
// extra allocations on the scheduling hot path.
package telemetry

import (
	"impress/internal/simclock"
	"impress/internal/trace"
)

// Instant-event kinds. The counter registry tallies instants under these
// names, so kinds double as counter names.
const (
	KindNodeCrash    = "node-crash"
	KindNodeRepair   = "node-repair"
	KindOutage       = "domain-outage"
	KindRestore      = "domain-restore"
	KindMaintOpen    = "maintenance-open"
	KindMaintClose   = "maintenance-close"
	KindTransfer     = "node-transfer"
	KindPipelineKill = "pipeline-kill"
	KindSteerMove    = "steer-move"
	KindSteerVeto    = "steer-veto"
	// Preemption lifecycle: a checkpoint banked at eviction or failure,
	// an attempt evicted for requeue, and an attempt resuming from saved
	// progress.
	KindTaskCheckpoint = "task-checkpoint"
	KindTaskEvict      = "task-evict"
	KindTaskResume     = "task-resume"
)

// Instant is a zero-duration event pinned to a pilot (and optionally a
// node) at a virtual timestamp.
type Instant struct {
	T    simclock.Time `json:"t"`
	Kind string        `json:"kind"`
	// Pilot is the pilot ordinal the event belongs to, -1 for
	// campaign-level events.
	Pilot int `json:"pilot"`
	// Node is the node ID involved, -1 when not node-scoped.
	Node int `json:"node"`
	// Detail carries a short free-form tag (domain name, veto reason,
	// pipeline ID).
	Detail string `json:"detail,omitempty"`
}

// PilotSample is one pilot's observed state at a steering tick — the
// steer.Stat fields plus the derivatives the controller computes.
type PilotSample struct {
	Queue      int     `json:"queue"`
	Running    int     `json:"running"`
	Nodes      int     `json:"nodes"`
	Idle       int     `json:"idle"`
	Frozen     bool    `json:"frozen,omitempty"`
	Util       float64 `json:"util"`
	UtilWindow float64 `json:"util_window"`
	QueueDelta int     `json:"queue_delta"`
}

// Tick logs one steering-controller observation: the per-pilot samples
// it decided from and what it did (moves applied, vetoes with reasons).
type Tick struct {
	T       simclock.Time `json:"t"`
	Pilots  []PilotSample `json:"pilots"`
	Actions []string      `json:"actions,omitempty"`
}

// Data is the serializable payload a Recorder accumulates. It rides on
// core.Result (additively, omitted when telemetry was off).
type Data struct {
	Instants []Instant                `json:"instants,omitempty"`
	Ticks    []Tick                   `json:"ticks,omitempty"`
	Counters map[string]int64         `json:"counters,omitempty"`
	Series   map[string][]trace.Point `json:"series,omitempty"`
}

// Recorder accumulates telemetry for one campaign. The zero value of
// *Recorder (nil) is a valid disabled recorder.
type Recorder struct {
	data Data
}

// NewRecorder returns an enabled recorder.
func NewRecorder() *Recorder {
	return &Recorder{data: Data{
		Counters: make(map[string]int64),
		Series:   make(map[string][]trace.Point),
	}}
}

// Enabled reports whether the recorder collects anything.
func (r *Recorder) Enabled() bool { return r != nil }

// Instant appends an instant event and bumps the kind's counter.
func (r *Recorder) Instant(t simclock.Time, kind string, pilot, node int, detail string) {
	if r == nil {
		return
	}
	r.data.Instants = append(r.data.Instants, Instant{T: t, Kind: kind, Pilot: pilot, Node: node, Detail: detail})
	r.data.Counters[kind]++
}

// Tick appends a steering-tick log.
func (r *Recorder) Tick(t simclock.Time, pilots []PilotSample, actions []string) {
	if r == nil {
		return
	}
	r.data.Ticks = append(r.data.Ticks, Tick{T: t, Pilots: pilots, Actions: actions})
}

// SetGauge records the named gauge's value at time t as a step series,
// with the same same-timestamp coalescing and unchanged-value early
// return as the trace recorder's series.
func (r *Recorder) SetGauge(name string, t simclock.Time, v int) {
	if r == nil {
		return
	}
	s := r.data.Series[name]
	if len(s) > 0 {
		last := len(s) - 1
		if s[last].Value == v {
			return
		}
		if s[last].T == t {
			s[last].Value = v
			return
		}
		if t < s[last].T {
			panic("telemetry: gauge timestamps must be monotone")
		}
	}
	r.data.Series[name] = append(s, trace.Point{T: t, Value: v})
}

// Data returns a snapshot of everything recorded (nil when disabled).
// Slices are copied; the map values share backing arrays with the
// recorder, so call this only after the run has quiesced.
func (r *Recorder) Data() *Data {
	if r == nil {
		return nil
	}
	d := Data{
		Instants: append([]Instant(nil), r.data.Instants...),
		Ticks:    append([]Tick(nil), r.data.Ticks...),
		Counters: make(map[string]int64, len(r.data.Counters)),
		Series:   make(map[string][]trace.Point, len(r.data.Series)),
	}
	for k, v := range r.data.Counters {
		d.Counters[k] = v
	}
	for k, v := range r.data.Series {
		d.Series[k] = append([]trace.Point(nil), v...)
	}
	return &d
}
