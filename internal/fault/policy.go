package fault

import (
	"fmt"
	"sort"
	"time"
)

// Attempt describes one failed execution attempt for a recovery decision.
type Attempt struct {
	// Attempt is the 1-based attempt number that just failed.
	Attempt int
	// Kind is what killed the attempt.
	Kind Kind
	// Node is the node the attempt was placed on, -1 when it never held
	// an allocation.
	Node int
}

// Decision is a recovery policy's verdict on a failed attempt.
type Decision struct {
	// Retry requests a resubmission; false makes the failure terminal.
	Retry bool
	// Delay postpones the resubmission on the virtual timeline
	// (exponential backoff); 0 requeues immediately.
	Delay time.Duration
	// ExcludeNode places the next attempt away from the failed node.
	ExcludeNode bool
}

// Policy decides whether and how a failed attempt is resubmitted. Like
// scheduling policies (internal/sched), implementations must be
// deterministic and stateless: the task manager owns the mechanism
// (cloning the attempt, scheduling the requeue, excluding nodes) and the
// policy only decides.
type Policy interface {
	// Name returns the registry name of the policy.
	Name() string
	// Decide returns the action for a failed attempt.
	Decide(a Attempt) Decision
}

// Attempt budgets. Retry-style policies allow maxAttempts total
// executions of one logical task; backoff stretches further because its
// delays make each extra attempt cheap for the scheduler.
const (
	retryMaxAttempts   = 3
	backoffMaxAttempts = 5
	backoffBase        = 15 * time.Minute
)

// nonePolicy surfaces every failure: the attempt is terminal. This is
// the default and the behaviour of the pre-fault runtime.
type nonePolicy struct{}

func (nonePolicy) Name() string            { return "none" }
func (nonePolicy) Decide(Attempt) Decision { return Decision{} }

// retryPolicy resubmits immediately up to a fixed attempt budget — the
// classic retry-k of batch middleware.
type retryPolicy struct{}

func (retryPolicy) Name() string { return "retry" }
func (retryPolicy) Decide(a Attempt) Decision {
	return Decision{Retry: a.Attempt < retryMaxAttempts}
}

// backoffPolicy resubmits with sim-time exponential backoff (15m, 30m,
// 60m, ...), the shape that avoids hammering a resource mid-outage.
type backoffPolicy struct{}

func (backoffPolicy) Name() string { return "backoff" }
func (backoffPolicy) Decide(a Attempt) Decision {
	if a.Attempt >= backoffMaxAttempts {
		return Decision{}
	}
	return Decision{Retry: true, Delay: backoffBase << (a.Attempt - 1)}
}

// elsewherePolicy resubmits immediately while excluding the failed node,
// so repeated node-local faults (bad DIMM, flaky accelerator) cannot eat
// the whole attempt budget. When exclusion would leave no node able to
// host the task, the task manager drops it rather than starving the task.
type elsewherePolicy struct{}

func (elsewherePolicy) Name() string { return "elsewhere" }
func (elsewherePolicy) Decide(a Attempt) Decision {
	return Decision{Retry: a.Attempt < retryMaxAttempts, ExcludeNode: a.Node >= 0}
}

// policies is the registry. Policies are stateless, so shared instances
// are safe.
var policies = map[string]Policy{
	"none":      nonePolicy{},
	"retry":     retryPolicy{},
	"backoff":   backoffPolicy{},
	"elsewhere": elsewherePolicy{},
}

// Names returns the registered recovery-policy names, sorted.
func Names() []string {
	out := make([]string, 0, len(policies))
	for n := range policies {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// New returns the named recovery policy.
func New(name string) (Policy, error) {
	p, ok := policies[name]
	if !ok {
		return nil, fmt.Errorf("fault: unknown recovery policy %q (known: %v)", name, Names())
	}
	return p, nil
}

// Default returns the default recovery policy name ("none"): failures
// surface, exactly as the pre-fault runtime behaved.
func Default() string { return "none" }

// Validate checks a recovery-policy name from configuration; the empty
// string is valid and means Default.
func Validate(name string) error {
	if name == "" {
		return nil
	}
	_, err := New(name)
	return err
}
