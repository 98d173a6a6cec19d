// Package sched is the pilot agent's pluggable scheduling-policy layer.
//
// The paper's Fig. 1 names an "Agent: Executor, Scheduler"; the scheduler
// is the adaptive middleware's lever for soaking up idle resources, and
// in scheduling research it *is* the experiment — simulators race
// best-fit against worst-fit against FIFO over one workload. This package
// separates that placement policy from the agent's mechanism: a Policy
// inspects the queue and the free-capacity ledger and decides in which
// order tasks are offered resources and whether a blocked task stalls the
// pass. The agent performs the actual allocation, so a policy can never
// corrupt the ledger — at worst it orders badly.
//
// The classic agent behaviours are re-expressed as the first two
// policies: "fifo" (strict submission order, stop at the first task that
// does not fit) and "backfill" (submission order, later tasks may jump a
// blocked head). Both are bit-identical to the pre-policy-layer scheduler
// passes. Beyond them, "bestfit", "worstfit", and "largest" reproduce the
// cluster-simulator experiment family.
package sched

import (
	"fmt"
	"sort"

	"impress/internal/cluster"
)

// Task is the policy's read-only view of one queued task.
type Task struct {
	// UID is the task's unique id within its task manager; UIDs ascend in
	// submission order, so sorting by UID is FIFO order.
	UID uint64
	// Req is the task's allocation request.
	Req cluster.Request
}

// Ledger is the indexed view of a pilot's free capacity: it enumerates
// only the nodes that can host a given request, ascending by node ID.
// *cluster.Cluster implements it (via its segment-tree index), keeping
// this package below internal/cluster's consumers in the dependency
// order. Tests implement it with a linear scan over per-node free
// counters, the reference the indexed ledger is checked against.
type Ledger interface {
	// VisitFitting calls f for every node whose free counters can host r,
	// in ascending node ID order; f returning false stops the walk.
	VisitFitting(r cluster.Request, f func(id int, free cluster.Request) bool)
}

// Policy decides the order in which the agent offers resources to queued
// tasks. Implementations must be deterministic (same queue and capacity
// in, same order out) and stateless across passes: every scheduling pass
// reads the ledger as it stands.
type Policy interface {
	// Name returns the registry name of the policy.
	Name() string
	// Order returns the order in which to attempt placements, as indices
	// into queue. Indices must be unique and in range; indices absent
	// from the result are not offered resources this pass.
	Order(queue []Task, free Ledger) []int
	// ContinueOnBlock reports whether a task that does not currently fit
	// is skipped (backfill-style) or stalls the rest of the pass
	// (FIFO-style, protecting the queue head from starvation).
	ContinueOnBlock() bool
}

// Resource weights for demand and slack scoring. GPUs are the scarce
// resource on the paper's evaluation node (28 cores : 4 GPUs), so one GPU
// weighs as much as seven cores; memory acts as a low-weight tie-breaker.
const (
	weightCore = 4
	weightGPU  = 28
	weightMem  = 1
)

// demand scores a request's total weighted resource footprint.
func demand(r cluster.Request) int {
	return r.Cores*weightCore + r.GPUs*weightGPU + r.MemGB*weightMem
}

// slack scores how loosely a request fits a node's free counters; smaller
// is tighter. Returns ok=false when the request does not fit the node.
func slack(node, req cluster.Request) (score int, ok bool) {
	if req.Cores > node.Cores || req.GPUs > node.GPUs || req.MemGB > node.MemGB {
		return 0, false
	}
	return (node.Cores-req.Cores)*weightCore +
		(node.GPUs-req.GPUs)*weightGPU +
		(node.MemGB-req.MemGB)*weightMem, true
}

// minSlack returns the tightest fit of req across the free nodes; ok is
// false when no node currently fits. Only fitting nodes are visited —
// the minimum equals that of a scan over every node because non-fitting
// nodes never contribute a score, and the walk ascends node IDs with a
// strict < comparison.
func minSlack(free Ledger, req cluster.Request) (score int, ok bool) {
	best, found := 0, false
	free.VisitFitting(req, func(_ int, n cluster.Request) bool {
		if s, fits := slack(n, req); fits && (!found || s < best) {
			best, found = s, true
		}
		return true
	})
	return best, found
}

// identity returns [0, 1, ..., n).
func identity(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// fifoPolicy is the classic strict-FIFO pass: submission order, and the
// first task that does not fit blocks everything behind it. This is the
// agent's pre-policy-layer behaviour with backfill off.
type fifoPolicy struct{}

func (fifoPolicy) Name() string                   { return "fifo" }
func (fifoPolicy) Order(q []Task, _ Ledger) []int { return identity(len(q)) }
func (fifoPolicy) ContinueOnBlock() bool          { return false }

// backfillPolicy is FIFO with backfill: submission order, but later tasks
// may jump a blocked head — how adaptive sub-pipelines soak up idle
// resources while a wide task waits. This is the agent's
// pre-policy-layer behaviour with backfill on.
type backfillPolicy struct{}

func (backfillPolicy) Name() string                   { return "backfill" }
func (backfillPolicy) Order(q []Task, _ Ledger) []int { return identity(len(q)) }
func (backfillPolicy) ContinueOnBlock() bool          { return true }

// bestFitPolicy offers resources tightest-fit first: the task whose
// request leaves the least weighted slack on its best node goes first,
// packing nodes densely (the bestfit policy of the k8s cluster-simulator
// experiments). Tasks that fit nowhere right now sort last; ties break by
// submission order.
type bestFitPolicy struct{}

func (bestFitPolicy) Name() string          { return "bestfit" }
func (bestFitPolicy) ContinueOnBlock() bool { return true }

func (bestFitPolicy) Order(q []Task, free Ledger) []int {
	return orderBySlack(q, free, false)
}

// worstFitPolicy offers resources loosest-fit first, spreading load and
// keeping the biggest holes for late arrivals (the worstfit
// counter-policy). Tasks that fit nowhere sort last; ties break by
// submission order.
type worstFitPolicy struct{}

func (worstFitPolicy) Name() string          { return "worstfit" }
func (worstFitPolicy) ContinueOnBlock() bool { return true }

func (worstFitPolicy) Order(q []Task, free Ledger) []int {
	return orderBySlack(q, free, true)
}

// orderBySlack ranks queue indices by their tightest per-node fit,
// ascending (best-fit) or descending (worst-fit). Unfitting tasks keep
// FIFO order after every fitting one.
func orderBySlack(q []Task, free Ledger, loosestFirst bool) []int {
	type scored struct {
		idx, score int
		fits       bool
	}
	xs := make([]scored, len(q))
	for i, t := range q {
		s, ok := minSlack(free, t.Req)
		xs[i] = scored{idx: i, score: s, fits: ok}
	}
	sort.SliceStable(xs, func(a, b int) bool {
		x, y := xs[a], xs[b]
		if x.fits != y.fits {
			return x.fits
		}
		if !x.fits || x.score == y.score {
			return q[x.idx].UID < q[y.idx].UID
		}
		if loosestFirst {
			return x.score > y.score
		}
		return x.score < y.score
	})
	out := make([]int, len(xs))
	for i, x := range xs {
		out[i] = x.idx
	}
	return out
}

// largestPolicy offers resources to the largest request first
// (largest-job-first): wide tasks get first pick of the free capacity and
// the small ones backfill around them — the greedy oversubscription-aware
// ordering of the cluster-simulator's oversub experiments. Ties break by
// submission order.
type largestPolicy struct{}

func (largestPolicy) Name() string          { return "largest" }
func (largestPolicy) ContinueOnBlock() bool { return true }

func (largestPolicy) Order(q []Task, _ Ledger) []int {
	idx := identity(len(q))
	sort.SliceStable(idx, func(a, b int) bool {
		da, db := demand(q[idx[a]].Req), demand(q[idx[b]].Req)
		if da == db {
			return q[idx[a]].UID < q[idx[b]].UID
		}
		return da > db
	})
	return idx
}

// policies is the registry. Policies are stateless, so shared instances
// are safe.
var policies = map[string]Policy{
	"fifo":     fifoPolicy{},
	"backfill": backfillPolicy{},
	"bestfit":  bestFitPolicy{},
	"worstfit": worstFitPolicy{},
	"largest":  largestPolicy{},
}

// SubmissionOrder reports whether p always visits the queue in
// submission order without inspecting requests or capacity — true for
// fifo and backfill. The agent uses this to skip building the queue view
// on its hottest path.
func SubmissionOrder(p Policy) bool {
	switch p.(type) {
	case fifoPolicy, backfillPolicy:
		return true
	}
	return false
}

// Names returns the registered policy names, sorted.
func Names() []string {
	out := make([]string, 0, len(policies))
	for n := range policies {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// New returns the named policy. The empty name is an error; callers that
// want the classic default should resolve it through Default first.
func New(name string) (Policy, error) {
	p, ok := policies[name]
	if !ok {
		return nil, fmt.Errorf("sched: unknown policy %q (known: %v)", name, Names())
	}
	return p, nil
}

// Default maps the legacy Backfill flag to its policy name: the flag on
// is the "backfill" policy, off is strict "fifo".
func Default(backfill bool) string {
	if backfill {
		return "backfill"
	}
	return "fifo"
}

// Validate checks a policy name from configuration; the empty string is
// valid and means "derive from the Backfill flag".
func Validate(name string) error {
	if name == "" {
		return nil
	}
	_, err := New(name)
	return err
}
