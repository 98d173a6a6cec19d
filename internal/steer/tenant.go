package steer

// Inter-campaign steering: the same policy/mechanism split as pilot-level
// steering, lifted one level. A TenantPolicy looks at per-tenant pressure
// and fair-share targets on a shared cluster and proposes whole-node
// reclaims between campaigns; the tenancy service owns the mechanism — it
// drains the donor's node through the checkpoint/evict/resume path,
// re-leases it on the pool ledger, and grows it into the receiver.
//
// Tenant policies deliberately live in their own registry: Names() feeds
// the elastic-screen and chaos-sweep campaign grids, so adding tenant
// policies there would silently reshape existing scenarios.

import (
	"fmt"
	"sort"
)

// TenantStat is the policy's read-only view of one admitted tenant at a
// reclaim observation.
type TenantStat struct {
	// Name labels the tenant (deterministic tie-breaking).
	Name string
	// Share is the tenant's fair-share target in nodes, as computed by
	// the admission policy in force (fractional: a weight-proportional
	// share rarely lands on an integer).
	Share float64
	// Nodes is the number of nodes the tenant currently leases.
	Nodes int
	// Queue is the number of tasks waiting for resources across the
	// tenant's pilots.
	Queue int
}

// TenantPolicy proposes node reclaims between tenants. Decisions must be
// deterministic functions of the snapshot — the tenant loop replays
// bit-identically from a seed. Transfer indexes refer to the TenantStat
// slice handed to Decide.
type TenantPolicy interface {
	// Name returns the registry name of the policy.
	Name() string
	// Decide returns the reclaims to attempt this observation.
	Decide(stats []TenantStat) []Transfer
}

// tenantNone never reclaims: tenants keep their admission grant for life.
type tenantNone struct{}

func (tenantNone) Name() string                   { return "none" }
func (tenantNone) Decide([]TenantStat) []Transfer { return nil }

// tenantFairshare moves one node per observation from the tenant most
// over its fair share to the starving tenant furthest under its share —
// the quota-reclaim move. A donor must be over-share by at least one
// whole node and keep at least one node; a receiver must be under-share
// with real queue pressure, so the reclaim is demand-driven rather than
// an entitlement shuffle.
type tenantFairshare struct{}

func (tenantFairshare) Name() string { return "fairshare" }

func (tenantFairshare) Decide(stats []TenantStat) []Transfer {
	donor, receiver := -1, -1
	var donorOver, receiverUnder float64
	for i, s := range stats {
		over := float64(s.Nodes) - s.Share
		if s.Nodes > 1 && over >= 1 {
			if donor < 0 || over > donorOver || (over == donorOver && s.Name < stats[donor].Name) {
				donor, donorOver = i, over
			}
		}
		under := s.Share - float64(s.Nodes)
		if s.Queue > 0 && under > 0 {
			if receiver < 0 || under > receiverUnder || (under == receiverUnder && s.Name < stats[receiver].Name) {
				receiver, receiverUnder = i, under
			}
		}
	}
	if donor < 0 || receiver < 0 || donor == receiver {
		return nil
	}
	// Only move when the pair actually converges toward the share
	// targets: a transfer shifts one whole node, so the combined
	// imbalance must exceed one node or the move just ping-pongs.
	if donorOver+receiverUnder <= 1+1e-9 {
		return nil
	}
	return []Transfer{{From: donor, To: receiver}}
}

// tenantBuilders is the registry of inter-campaign steering policies,
// separate from the pilot-level builders map (whose Names() existing
// scenario grids iterate).
var tenantBuilders = map[string]func() TenantPolicy{
	"none":      func() TenantPolicy { return tenantNone{} },
	"fairshare": func() TenantPolicy { return tenantFairshare{} },
}

// TenantNames lists the registered inter-campaign policies, sorted.
func TenantNames() []string {
	names := make([]string, 0, len(tenantBuilders))
	for n := range tenantBuilders {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// NewTenant builds a fresh instance of the named inter-campaign policy;
// empty selects the default ("none").
func NewTenant(name string) (TenantPolicy, error) {
	if name == "" {
		name = TenantDefault()
	}
	b, ok := tenantBuilders[name]
	if !ok {
		return nil, fmt.Errorf("steer: unknown tenant policy %q (have %v)", name, TenantNames())
	}
	return b(), nil
}

// TenantDefault is the inter-campaign policy used when none is named.
func TenantDefault() string { return "none" }

// TenantEnabled reports whether the name selects an active reclaim
// policy (anything but "none" or empty).
func TenantEnabled(name string) bool { return name != "" && name != "none" }

// ValidateTenant rejects unknown inter-campaign policy names; empty is
// the default and fine.
func ValidateTenant(name string) error {
	if name == "" {
		return nil
	}
	if _, ok := tenantBuilders[name]; !ok {
		return fmt.Errorf("steer: unknown tenant policy %q (have %v)", name, TenantNames())
	}
	return nil
}
