// Package fault is the failure-model layer of the pilot runtime: it
// declares *what goes wrong* on the simulated resource as data, and *how
// the middleware recovers* as pluggable policies — mirroring the
// policy-free-middleware argument that failure models and recovery
// policies belong in configuration, not in code forks.
//
// The paper's campaigns ran 27.7–38.3 wall-clock hours on real HPC, where
// task crashes, node faults, and walltime expiry are routine; the
// IMPRESS/RADICAL-Pilot stack has to absorb them without losing the
// campaign. This package reproduces that reality deterministically: every
// failure is drawn from a seed-derived stream in virtual time, so a
// fault-injected campaign replays bit-for-bit from its seed, and the
// zero-fault configuration draws nothing at all — it is provably inert.
//
// Three failure models (Spec):
//
//   - per-task faults: each running attempt fails with a probability
//     resolved by pipeline stage and resource class, at a deterministic
//     fraction of its runtime;
//   - node crashes: each node draws MTBF-distributed crash times; a crash
//     kills every resident task and removes the node's capacity from the
//     allocation ledger for a repair window;
//   - walltime expiry: the pilot's allocation ends, failing all queued
//     and in-flight work.
//
// Plus the correlated, domain-aware models (Spec.Domains): whole-domain
// outages on a seeded schedule, crash cascades that drag same-domain
// neighbors down, and scheduled maintenance windows declared as data —
// the rack/zone failure bursts independent per-node MTBF chains cannot
// express.
//
// Recovery is a Policy chosen per pilot, exactly like the agent's
// scheduling policy (internal/sched): "none" surfaces every failure,
// "retry" resubmits up to a fixed attempt budget, "backoff" retries with
// sim-time exponential delays, and "elsewhere" retries while excluding
// the node that failed.
package fault

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"impress/internal/xrand"
)

// Kind classifies what terminated a failed attempt.
type Kind int

const (
	// KindNone marks a task untouched by the fault subsystem.
	KindNone Kind = iota
	// KindTask is an injected per-task fault (the TaskFailProb model).
	KindTask
	// KindNodeCrash marks a task killed because its node crashed.
	KindNodeCrash
	// KindWalltime marks work failed by pilot walltime expiry.
	KindWalltime
	// KindPayload is a genuine payload error (Work returned an error or
	// an invalid phase profile) routed through recovery.
	KindPayload
	// KindPreempt marks an attempt evicted by the preemption subsystem
	// (checkpoint/evict/resume): not a failure of the work but a
	// scheduling decision, requeued with its checkpointed progress.
	KindPreempt
	// KindCount bounds Kind values for array-indexed tallies.
	KindCount
)

var kindNames = [KindCount]string{"none", "task", "node-crash", "walltime", "payload", "preempt"}

func (k Kind) String() string {
	if k >= 0 && k < KindCount {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Spec declares a pilot's failure models. The zero value disables every
// model and is guaranteed inert: no random stream is consumed, no event
// is scheduled, and runs are bit-identical to a build without the fault
// subsystem.
type Spec struct {
	// TaskFailProb is the per-attempt probability that a running task is
	// killed by an injected fault before completing. 0 disables the model.
	TaskFailProb float64
	// StageFailProb overrides TaskFailProb per pipeline stage, keyed by
	// the stage fragment of the task name (e.g. "s4_fold"); a task whose
	// name contains the key uses that probability instead.
	StageFailProb map[string]float64
	// GPUFailFactor scales the resolved probability for GPU-class tasks
	// (GPUs are the fragile resource on real accelerators); 0 means 1.
	GPUFailFactor float64
	// NodeMTBF enables the node-crash model: each node draws
	// exponentially distributed times between failures with this mean.
	// 0 disables the model.
	NodeMTBF time.Duration
	// NodeRepair is how long a crashed node stays out of the ledger
	// before its capacity returns; 0 means DefaultNodeRepair.
	NodeRepair time.Duration
	// Walltime bounds the pilot's lifetime from activation; on expiry all
	// queued and in-flight work fails with KindWalltime (recoverable on
	// another pilot, unlike the legacy cancellation walltime). 0 disables.
	Walltime time.Duration
	// Domains declares the correlated, domain-aware failure models
	// (whole-domain outages, crash cascades, scheduled maintenance). The
	// zero value disables them all. Domain membership comes from each
	// node's capacity label (cluster.NodeCapacity.Domain); nodes without
	// a label form the "" domain.
	Domains DomainSpec
}

// DomainSpec declares the correlated failure models that act on failure
// domains (racks, zones, power feeds) rather than on independent nodes.
// Every model draws from seed-derived streams in virtual time, so a
// domain-faulted campaign replays bit-for-bit, and the zero value is
// inert.
type DomainSpec struct {
	// OutageMTBF enables whole-domain outages: each failure domain draws
	// exponentially distributed times between outages with this mean,
	// and an outage takes every up node of the domain down together —
	// the rack/zone burst real fleets fail in. 0 disables the model.
	OutageMTBF time.Duration
	// OutageDuration is how long an outage keeps its domain down;
	// 0 means the node repair window (Spec.RepairWindow).
	OutageDuration time.Duration
	// CascadeProb enables crash cascades: when a node crashes, each up
	// node of the same domain is independently dragged down with this
	// probability, within CascadeWindow — a crash raises the hazard for
	// its neighbors. 0 disables the model.
	CascadeProb float64
	// CascadeWindow bounds how long after the trigger crash a cascading
	// neighbor falls; 0 means DefaultCascadeWindow.
	CascadeWindow time.Duration
	// Maintenance declares scheduled domain outages as data: windows are
	// deterministic (no random stream), measured from pilot activation.
	Maintenance []Maintenance
}

// DefaultCascadeWindow is the cascade spread used when CascadeWindow is
// zero.
const DefaultCascadeWindow = 10 * time.Minute

// Enabled reports whether any domain-level model is active.
func (d DomainSpec) Enabled() bool {
	return d.OutageMTBF > 0 || d.CascadeProb > 0 || len(d.Maintenance) > 0
}

// isProb reports whether p is a failure probability in [0, 1). The test
// is written so that NaN fails it; ±Inf lie outside the range.
func isProb(p float64) bool { return p >= 0 && p < 1 }

// Validate rejects domain specs that cannot be sampled or scheduled.
func (d DomainSpec) Validate() error {
	if d.OutageMTBF < 0 {
		return fmt.Errorf("fault: negative domain outage MTBF %v", d.OutageMTBF)
	}
	if d.OutageDuration < 0 {
		return fmt.Errorf("fault: negative domain outage duration %v", d.OutageDuration)
	}
	if !isProb(d.CascadeProb) {
		return fmt.Errorf("fault: cascade probability %v outside [0, 1)", d.CascadeProb)
	}
	if d.CascadeWindow < 0 {
		return fmt.Errorf("fault: negative cascade window %v", d.CascadeWindow)
	}
	for i, m := range d.Maintenance {
		if err := m.Validate(); err != nil {
			return fmt.Errorf("fault: maintenance window %d: %w", i, err)
		}
	}
	return nil
}

// cascadeWindow returns the effective cascade spread.
func (d DomainSpec) cascadeWindow() time.Duration {
	if d.CascadeWindow > 0 {
		return d.CascadeWindow
	}
	return DefaultCascadeWindow
}

// CascadeDelay decides deterministically whether a same-domain neighbor
// is dragged down by a trigger crash, and when within the window. The
// draw advances the neighbor's own chain RNG, so cascade decisions stay
// independent across nodes and deterministic per stream.
func (d DomainSpec) CascadeDelay(rng *xrand.RNG) (delay time.Duration, ok bool) {
	if d.CascadeProb <= 0 {
		return 0, false
	}
	hit := rng.Float64() < d.CascadeProb
	frac := rng.Float64() // always drawn: stream shape is hit-independent
	if !hit {
		return 0, false
	}
	delay = time.Duration(frac * float64(d.cascadeWindow()))
	if delay < time.Second {
		delay = time.Second
	}
	return delay, true
}

// Maintenance is one scheduled outage window for a failure domain,
// declared as data: at Start (measured from pilot activation) every up
// node of Domain goes down for Duration, repeating every Every when set.
type Maintenance struct {
	// Domain is the failure-domain label taken down ("" matches nodes
	// without a label).
	Domain string
	// Start is the window's first opening, measured from pilot
	// activation.
	Start time.Duration
	// Duration is how long the window keeps the domain down.
	Duration time.Duration
	// Every repeats the window with this period; 0 means one-shot.
	Every time.Duration
}

// MaxMaintenanceSpan bounds a maintenance window's start, duration and
// period. Ten years of virtual time is far past any campaign, and it
// keeps the opening and closing instants inside the virtual clock's
// range, where a larger value overflowed into an event scheduled in the
// past.
const MaxMaintenanceSpan = 10 * 365 * 24 * time.Hour

// Validate rejects windows that cannot be scheduled.
func (m Maintenance) Validate() error {
	if m.Start < 0 {
		return fmt.Errorf("negative start %v", m.Start)
	}
	if m.Duration <= 0 {
		return fmt.Errorf("non-positive duration %v", m.Duration)
	}
	if m.Every < 0 {
		return fmt.Errorf("negative period %v", m.Every)
	}
	if m.Start > MaxMaintenanceSpan || m.Duration > MaxMaintenanceSpan || m.Every > MaxMaintenanceSpan {
		return fmt.Errorf("start, duration and period must not exceed %v", MaxMaintenanceSpan)
	}
	if m.Every > 0 && m.Every <= m.Duration {
		return fmt.Errorf("period %v must exceed duration %v", m.Every, m.Duration)
	}
	return nil
}

// ParseMaintenance parses a comma-separated maintenance schedule of the
// form
//
//	rackA@6h/30m/24h,rackB@12h/1h
//
// — each window domain@start/duration[/every], with durations in Go
// syntax. An empty domain ("@1h/30m") addresses unlabeled nodes. Errors
// name the offending window so a long flag value stays debuggable.
func ParseMaintenance(s string) ([]Maintenance, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []Maintenance
	for _, raw := range strings.Split(s, ",") {
		win := strings.TrimSpace(raw)
		bad := func(msg string) ([]Maintenance, error) {
			return nil, fmt.Errorf("fault: bad maintenance window %q: %s (want domain@start/duration[/every])", win, msg)
		}
		domain, rest, ok := strings.Cut(win, "@")
		if !ok {
			return bad("missing '@'")
		}
		parts := strings.Split(rest, "/")
		if len(parts) < 2 || len(parts) > 3 {
			return bad("want start/duration[/every]")
		}
		var m Maintenance
		m.Domain = domain
		var err error
		if m.Start, err = time.ParseDuration(parts[0]); err != nil {
			return bad(fmt.Sprintf("bad start %q", parts[0]))
		}
		if m.Duration, err = time.ParseDuration(parts[1]); err != nil {
			return bad(fmt.Sprintf("bad duration %q", parts[1]))
		}
		if len(parts) == 3 {
			if m.Every, err = time.ParseDuration(parts[2]); err != nil {
				return bad(fmt.Sprintf("bad period %q", parts[2]))
			}
		}
		if err := m.Validate(); err != nil {
			return bad(err.Error())
		}
		out = append(out, m)
	}
	return out, nil
}

// Chain is the portable ownership record of one node's crash machinery —
// what an elastic node transfer hands from the donor pilot's injector to
// the receiver's. It carries the node's dedicated MTBF stream and the
// delay remaining until its pending crash, so the crash fires at the
// same virtual instant it would have on the donor, now booked by the
// pilot that actually owns the hardware.
type Chain struct {
	// RNG is the node's dedicated MTBF stream, advanced only by its
	// crash chain.
	RNG *xrand.RNG
	// NextCrash is the delay remaining until the node's pending crash at
	// detach time; <= 0 means no crash was pending (the receiver draws
	// afresh).
	NextCrash time.Duration
}

// DefaultNodeRepair is the repair window used when NodeRepair is zero.
const DefaultNodeRepair = 30 * time.Minute

// Enabled reports whether any failure model is active.
func (s Spec) Enabled() bool {
	return s.TaskFailProb > 0 || len(s.StageFailProb) > 0 || s.NodeMTBF > 0 || s.Walltime > 0 ||
		s.Domains.Enabled()
}

// Validate rejects specs that cannot be sampled.
func (s Spec) Validate() error {
	if !isProb(s.TaskFailProb) {
		return fmt.Errorf("fault: task failure probability %v outside [0, 1)", s.TaskFailProb)
	}
	keys := make([]string, 0, len(s.StageFailProb))
	for k := range s.StageFailProb {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if p := s.StageFailProb[k]; !isProb(p) {
			return fmt.Errorf("fault: stage %q failure probability %v outside [0, 1)", k, p)
		}
	}
	if !(s.GPUFailFactor >= 0) || math.IsInf(s.GPUFailFactor, 1) {
		return fmt.Errorf("fault: GPU failure factor %v is negative or not finite", s.GPUFailFactor)
	}
	if s.NodeMTBF < 0 {
		return fmt.Errorf("fault: negative node MTBF %v", s.NodeMTBF)
	}
	if s.NodeRepair < 0 {
		return fmt.Errorf("fault: negative node repair window %v", s.NodeRepair)
	}
	if s.Walltime < 0 {
		return fmt.Errorf("fault: negative walltime %v", s.Walltime)
	}
	if err := s.Domains.Validate(); err != nil {
		return err
	}
	if s.Domains.CascadeProb > 0 && s.NodeMTBF <= 0 {
		return fmt.Errorf("fault: cascade model needs per-node crash chains (set NodeMTBF)")
	}
	return nil
}

// RepairWindow returns the effective repair interval.
func (s Spec) RepairWindow() time.Duration {
	if s.NodeRepair > 0 {
		return s.NodeRepair
	}
	return DefaultNodeRepair
}

// TaskProb resolves the failure probability for one task: the stage
// override when a StageFailProb key appears in the task name, otherwise
// the base rate, scaled by GPUFailFactor for GPU-class tasks.
func (s Spec) TaskProb(taskName string, gpu bool) float64 {
	p := s.TaskFailProb
	// Stage keys are matched as substrings of the task name because task
	// names embed pipeline and cycle ("pl.0001:s4_fold:c2").
	keys := make([]string, 0, len(s.StageFailProb))
	for k := range s.StageFailProb {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if strings.Contains(taskName, k) {
			p = s.StageFailProb[k]
			break
		}
	}
	if gpu && s.GPUFailFactor > 0 {
		p *= s.GPUFailFactor
	}
	if p > 0.999 {
		p = 0.999
	}
	return p
}

// TaskFault decides deterministically whether an attempt with the given
// seed fails, and when. The decision is a pure function of (seed,
// taskName, gpu, total): the executor calls it once per attempt, and the
// same attempt always fails at the same instant. Returns ok=false when
// the attempt survives.
func (s Spec) TaskFault(seed uint64, taskName string, gpu bool, total time.Duration) (at time.Duration, ok bool) {
	p := s.TaskProb(taskName, gpu)
	if p <= 0 || total <= 0 {
		return 0, false
	}
	rng := xrand.New(xrand.Derive(seed, "fault:task"))
	if rng.Float64() >= p {
		return 0, false
	}
	// Fail strictly inside the run: uniform over (0, total).
	frac := rng.Float64()
	at = time.Duration(frac * float64(total))
	if at >= total {
		at = total - 1
	}
	if at < 0 {
		at = 0
	}
	return at, true
}

// CrashDelay draws the next time-to-crash for a node from its dedicated
// RNG stream: exponentially distributed with mean mtbf, floored at one
// virtual second so crash cascades cannot pile onto a single instant.
func CrashDelay(rng *xrand.RNG, mtbf time.Duration) time.Duration {
	d := time.Duration(rng.ExpFloat64() * float64(mtbf))
	if d < time.Second {
		d = time.Second
	}
	return d
}
