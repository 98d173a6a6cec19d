// Package steer is the elastic pilot-steering layer: the runtime lever
// the IMPRESS paper calls adaptive resource use. The coordinator does
// not just schedule a fixed CPU/GPU split — it watches per-pilot queue
// pressure and idle capacity mid-campaign and transfers whole nodes
// between pilots so capacity follows the stages that are starving.
//
// Mirroring internal/sched and internal/fault, the package separates
// policy from mechanism: a Policy inspects a per-pilot pressure snapshot
// and proposes node transfers; the Controller owns the mechanism — it
// samples on the virtual timeline, vetoes transfers that would violate
// the runtime's invariants (down nodes, in-flight allocations, a
// pilot's last node, shapes the receiver cannot use), and drives the
// pilots' grow/shrink operations. A policy can therefore never corrupt
// a ledger; at worst it steers badly.
//
// Unlike scheduling policies, steering policies may carry state across
// observations (hysteresis needs memory), so New returns a fresh
// instance per campaign.
package steer

import (
	"fmt"
	"sort"
	"time"
)

// DefaultPeriod is the steering observation interval on the virtual
// timeline. Campaign makespans run tens of virtual hours and tasks tens
// of minutes, so a 15-minute cadence reacts within a stage wave without
// flooding the event queue.
const DefaultPeriod = 15 * time.Minute

// Stat is the policy's read-only view of one pilot at an observation.
type Stat struct {
	// Queue is the number of tasks waiting for resources.
	Queue int
	// Running is the number of placed (setup or executing) tasks.
	Running int
	// Nodes is the number of operational nodes in the pilot's ledger: up
	// and not transferred away. Crashed nodes are excluded — a pilot
	// mid-repair must not donate its last live node on the strength of
	// capacity it cannot currently schedule.
	Nodes int
	// Idle is the number of transferable nodes: up, fully free, holding
	// no in-flight allocations.
	Idle int
	// Frozen marks an inactive pilot (still launching, draining toward
	// walltime expiry, or ended); it neither donates nor receives
	// nodes, whatever the policy proposes.
	Frozen bool

	// Derivative signals, maintained incrementally by the controller
	// across observations (the telemetry layer's cheap windowed
	// aggregates). Existing policies ignore them; they exist so
	// predictive policies can move capacity before a queue forms.

	// Util is the fraction of the pilot's core capacity currently
	// allocated (0..1; 0 when the pilot has no capacity).
	Util float64
	// UtilWindow is an exponentially weighted moving average of Util
	// over past observations (alpha 0.5; seeded with the first sample).
	UtilWindow float64
	// QueueDelta is the queue-length change since the previous
	// observation (0 at the first).
	QueueDelta int
}

// Transfer proposes moving one node between pilots, by index into the
// Stat slice handed to Decide.
type Transfer struct {
	From int
	To   int
}

// Policy proposes node transfers from a pressure snapshot. Decisions
// must be deterministic functions of the observation history — the
// whole middleware replays bit-identically from a seed.
type Policy interface {
	// Name returns the registry name of the policy.
	Name() string
	// Decide returns the transfers to attempt this observation. The
	// controller validates each against the runtime's invariants and
	// skips (never substitutes) invalid ones.
	Decide(stats []Stat) []Transfer
}

// nonePolicy never transfers: the frozen split. This is the default and
// the configuration the golden traces prove bit-identical to the
// pre-steering runtime.
type nonePolicy struct{}

func (nonePolicy) Name() string                   { return "none" }
func (nonePolicy) Decide(stats []Stat) []Transfer { return nil }

// greedyPolicy rebalances the moment pressure appears: every observation,
// each starving pilot (non-empty queue) is offered one node from the
// donor with the most idle nodes among pilots that are not starving
// themselves. It reacts within one period but can thrash when pressure
// oscillates faster than tasks drain.
type greedyPolicy struct{}

func (greedyPolicy) Name() string { return "greedy" }

func (greedyPolicy) Decide(stats []Stat) []Transfer {
	var out []Transfer
	for _, to := range starving(stats) {
		if from, ok := bestDonor(stats, to); ok {
			out = append(out, Transfer{From: from, To: to})
		}
	}
	return out
}

// Hysteresis tuning: pressure must persist for Patience consecutive
// observations before a node moves, a donor must have stayed quiet as
// long, and every transfer opens a cooldown window. The thresholds trade
// reaction latency for stability.
const (
	hysteresisPatience = 2
	hysteresisCooldown = 2
)

// hysteresisPolicy is greedy damped by thresholds: a pilot must starve
// for Patience consecutive observations (and its donor must have been
// idle-handed just as long) before a node moves, and each transfer is
// followed by a cooldown during which the pair is left alone. This is
// the thrash-resistant policy control theory would reach for.
type hysteresisPolicy struct {
	starveStreak []int
	quietStreak  []int
	cooldown     []int
}

func (p *hysteresisPolicy) Name() string { return "hysteresis" }

func (p *hysteresisPolicy) Decide(stats []Stat) []Transfer {
	if len(p.starveStreak) != len(stats) {
		p.starveStreak = make([]int, len(stats))
		p.quietStreak = make([]int, len(stats))
		p.cooldown = make([]int, len(stats))
	}
	for i, s := range stats {
		if s.Queue > 0 {
			p.starveStreak[i]++
			p.quietStreak[i] = 0
		} else {
			p.starveStreak[i] = 0
			p.quietStreak[i]++
		}
		if p.cooldown[i] > 0 {
			p.cooldown[i]--
		}
	}
	var out []Transfer
	for _, to := range starving(stats) {
		if p.starveStreak[to] < hysteresisPatience || p.cooldown[to] > 0 {
			continue
		}
		from, ok := bestDonor(stats, to)
		if !ok || p.quietStreak[from] < hysteresisPatience || p.cooldown[from] > 0 {
			continue
		}
		out = append(out, Transfer{From: from, To: to})
		p.cooldown[from], p.cooldown[to] = hysteresisCooldown, hysteresisCooldown
	}
	return out
}

// preemptPolicy is greedy with checkpointed eviction as its fallback:
// when a starving pilot has no idle-handed donor, it still proposes a
// transfer from the least-starved busy pilot, relying on the controller
// to drain a busy node (checkpoint, evict, transfer, resume) instead of
// vetoing with non-idle. It trades a bounded amount of re-execution
// (work past the last checkpoint) for capacity that follows pressure
// even when the fleet is saturated.
type preemptPolicy struct{}

func (preemptPolicy) Name() string { return "preempt" }

// Preemptive marks the policy's transfers as eligible for the
// controller's drain path.
func (preemptPolicy) Preemptive() bool { return true }

func (preemptPolicy) Decide(stats []Stat) []Transfer {
	var out []Transfer
	for _, to := range starving(stats) {
		from, ok := bestDonor(stats, to)
		if !ok {
			from, ok = busyDonor(stats, to)
		}
		if ok {
			out = append(out, Transfer{From: from, To: to})
		}
	}
	return out
}

// busyDonor relaxes bestDonor's idle-handedness requirement: any
// unfrozen, non-starving pilot with more than one operational node may
// donate, preferring the pilot with the most nodes (ties by index). The
// donated node will carry running work, so this is only proposed by
// policies the controller drains for.
func busyDonor(stats []Stat, to int) (int, bool) {
	best, found := -1, false
	for i, s := range stats {
		if i == to || s.Frozen || s.Queue > 0 || s.Nodes <= 1 {
			continue
		}
		if !found || s.Nodes > stats[best].Nodes {
			best, found = i, true
		}
	}
	return best, found
}

// starving returns the indices of unfrozen pilots with queued work,
// deepest queue first (ties by index, for determinism).
func starving(stats []Stat) []int {
	var out []int
	for i, s := range stats {
		if !s.Frozen && s.Queue > 0 {
			out = append(out, i)
		}
	}
	sort.SliceStable(out, func(a, b int) bool { return stats[out[a]].Queue > stats[out[b]].Queue })
	return out
}

// bestDonor picks the unfrozen pilot with the most idle nodes that is
// not itself starving, has a transferable node, and holds more than one
// operational node (a pilot never donates its last). Ties break by
// index.
func bestDonor(stats []Stat, to int) (int, bool) {
	best, found := -1, false
	for i, s := range stats {
		if i == to || s.Frozen || s.Queue > 0 || s.Idle < 1 || s.Nodes <= 1 {
			continue
		}
		if !found || s.Idle > stats[best].Idle {
			best, found = i, true
		}
	}
	return best, found
}

// registry builders: steering policies may carry state, so each campaign
// gets a fresh instance.
var builders = map[string]func() Policy{
	"none":       func() Policy { return nonePolicy{} },
	"greedy":     func() Policy { return greedyPolicy{} },
	"hysteresis": func() Policy { return &hysteresisPolicy{} },
	"preempt":    func() Policy { return preemptPolicy{} },
}

// Names returns the registered steering-policy names, sorted.
func Names() []string {
	out := make([]string, 0, len(builders))
	for n := range builders {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// New returns a fresh instance of the named steering policy.
func New(name string) (Policy, error) {
	b, ok := builders[name]
	if !ok {
		return nil, fmt.Errorf("steer: unknown steering policy %q (known: %v)", name, Names())
	}
	return b(), nil
}

// Default returns the default steering policy name ("none"): pilot
// partitions stay frozen at campaign start, exactly as the pre-steering
// runtime behaved.
func Default() string { return "none" }

// Enabled reports whether a resolved policy name actually steers.
func Enabled(name string) bool { return name != "" && name != "none" }

// Validate checks a steering-policy name from configuration; the empty
// string is valid and means Default.
func Validate(name string) error {
	if name == "" {
		return nil
	}
	_, err := New(name)
	return err
}
