package trace

import (
	"slices"

	"impress/internal/simclock"
)

// Instant-event kinds: what the fault injector, the steering controller,
// the preemption path and the coordinator report to a recorder with
// telemetry on.
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

// Gauges names the per-pilot occupancy gauges SetOccupancy records, in
// its argument order.
var Gauges = [...]string{"running", "free-cores", "free-gpus"}

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

// EnableTelemetry makes the recorder keep instants, steering ticks and
// occupancy gauges as well. None of them moves the campaign end, so a
// campaign measures the same with telemetry on or off.
func (r *Recorder) EnableTelemetry() { r.telemetry = true }

// Telemetry reports whether the recorder keeps telemetry. It is false on
// a nil recorder, so call sites guard work that only feeds telemetry
// (formatting a detail, sampling a gauge) with one call.
func (r *Recorder) Telemetry() bool { return r != nil && r.telemetry }

// Instant logs an instant event; a no-op unless Telemetry.
func (r *Recorder) Instant(t simclock.Time, kind string, pilot, node int, detail string) {
	if r.Telemetry() {
		r.instants = append(r.instants, Instant{T: t, Kind: kind, Pilot: pilot, Node: node, Detail: detail})
	}
}

// Tick logs a steering-controller observation; a no-op unless Telemetry.
func (r *Recorder) Tick(t simclock.Time, pilots []PilotSample, actions []string) {
	if r.Telemetry() {
		r.ticks = append(r.ticks, Tick{T: t, Pilots: pilots, Actions: actions})
	}
}

// SetOccupancy records pilot's occupancy gauges at t (Gauges order) on
// the same step-series path as SetQueueDepth; a no-op unless Telemetry.
func (r *Recorder) SetOccupancy(pilot int, t simclock.Time, running, freeCores, freeGPUs int) {
	if !r.Telemetry() {
		return
	}
	g := &r.seriesOf(pilot).gauges
	r.setStep(&g[0], t, running)
	r.setStep(&g[1], t, freeCores)
	r.setStep(&g[2], t, freeGPUs)
}

// Instants returns a copy of the logged instants in logging order.
func (r *Recorder) Instants() []Instant { return slices.Clone(r.instants) }

// Ticks returns a copy of the logged steering ticks.
func (r *Recorder) Ticks() []Tick { return slices.Clone(r.ticks) }

// GaugeSeries returns a copy of one occupancy gauge's step series for
// the given pilot ordinal; gauge indexes Gauges. Nil when the gauge was
// never recorded.
func (r *Recorder) GaugeSeries(pilot, gauge int) []Point {
	if pilot < 0 || pilot >= len(r.pilots) {
		return nil
	}
	return r.pilots[pilot].gauges[gauge].flat()
}
