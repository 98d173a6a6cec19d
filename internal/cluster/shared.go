package cluster

// Shared turns one Cluster into a concurrent-safe, node-granularity lease
// service — the multi-tenant face of the ledger. A lease pins a whole
// node for one tenant by carrying a full-capacity allocation on the
// pool's indexed ledger, so conservation ("every leased core is an
// allocated core") holds by construction and the pool's O(log n)
// aggregates stay truthful. Tenants then run their private schedulers
// against the leased capacity; the pool only ever moves whole nodes.
//
// Unlike Cluster itself — which is single-threaded by design and owned by
// one pilot's event loop — Shared serializes every operation behind a
// mutex: the tenant loop admits, releases, and transfers leases from the
// shared simulation engine while invariant suites hammer it from many
// goroutines under the race detector.

import (
	"fmt"
	"sort"
	"sync"
)

// nodeLease records one node pinned to one tenant.
type nodeLease struct {
	tenant string
	alloc  *Alloc
}

// Shared is a concurrent-safe lease front over a single shared Cluster.
type Shared struct {
	mu      sync.Mutex
	pool    *Cluster
	leases  map[int]*nodeLease // node ID -> lease
	tenants map[string]map[int]bool
}

// NewShared builds a shared pool over an indexed cluster. A nil caps
// slice expands the spec's uniform node shape (like New); an explicit
// caps slice pins per-node capacities (like NewWithNodes).
func NewShared(spec Spec, caps []NodeCapacity) (*Shared, error) {
	var (
		pool *Cluster
		err  error
	)
	if caps == nil {
		pool, err = New(spec)
	} else {
		pool, err = NewWithNodes(spec, caps)
	}
	if err != nil {
		return nil, err
	}
	return &Shared{
		pool:    pool,
		leases:  make(map[int]*nodeLease),
		tenants: make(map[string]map[int]bool),
	}, nil
}

// TotalNodes is the pool's node count.
func (s *Shared) TotalNodes() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pool.NodeCount()
}

// TotalCores is the pool's aggregate core capacity.
func (s *Shared) TotalCores() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pool.CapCores()
}

// TotalGPUs is the pool's aggregate GPU capacity.
func (s *Shared) TotalGPUs() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pool.CapGPUs()
}

// FreeNodes counts nodes not currently leased to any tenant.
func (s *Shared) FreeNodes() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pool.TransferableNodes())
}

// Cap returns the capacity of one pool node.
func (s *Shared) Cap(id int) NodeCapacity {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pool.NodeCap(id)
}

// Leased returns the tenant's leased node IDs, sorted ascending.
func (s *Shared) Leased(tenant string) []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.leasedLocked(tenant)
}

func (s *Shared) leasedLocked(tenant string) []int {
	held := s.tenants[tenant]
	ids := make([]int, 0, len(held))
	for id := range held {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// Lease pins n free nodes to the tenant (lowest node IDs first, for
// determinism) and returns their IDs sorted ascending. The grant is
// all-or-nothing: when fewer than n nodes are free, nothing is leased.
func (s *Shared) Lease(tenant string, n int) ([]int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if tenant == "" {
		return nil, fmt.Errorf("cluster: lease needs a tenant name")
	}
	if n <= 0 {
		return nil, fmt.Errorf("cluster: tenant %s asked to lease %d nodes", tenant, n)
	}
	free := s.pool.TransferableNodes()
	if len(free) < n {
		return nil, fmt.Errorf("cluster: tenant %s wants %d nodes, only %d free", tenant, n, len(free))
	}
	ids := free[:n]
	for _, id := range ids {
		nc := s.pool.NodeCap(id)
		a := s.pool.AllocateOn(id, Request{Cores: nc.Cores, GPUs: nc.GPUs, MemGB: nc.MemGB})
		if a == nil {
			panic(fmt.Sprintf("cluster: free node %d refused a full-capacity lease", id))
		}
		s.leases[id] = &nodeLease{tenant: tenant, alloc: a}
		held := s.tenants[tenant]
		if held == nil {
			held = make(map[int]bool)
			s.tenants[tenant] = held
		}
		held[id] = true
	}
	return ids, nil
}

// Release returns one leased node to the pool. Only the owning tenant
// may release a lease — releasing another tenant's node is a bug.
func (s *Shared) Release(tenant string, id int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.releaseLocked(tenant, id)
}

func (s *Shared) releaseLocked(tenant string, id int) error {
	l, ok := s.leases[id]
	if !ok {
		return fmt.Errorf("cluster: node %d is not leased", id)
	}
	if l.tenant != tenant {
		return fmt.Errorf("cluster: node %d is leased to %s, not %s", id, l.tenant, tenant)
	}
	s.pool.Release(l.alloc)
	delete(s.leases, id)
	delete(s.tenants[tenant], id)
	if len(s.tenants[tenant]) == 0 {
		delete(s.tenants, tenant)
	}
	return nil
}

// ReleaseAll returns every node the tenant holds and reports how many
// leases were released — the teardown path when a tenant finishes.
func (s *Shared) ReleaseAll(tenant string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := s.leasedLocked(tenant)
	for _, id := range ids {
		if err := s.releaseLocked(tenant, id); err != nil {
			panic(fmt.Sprintf("cluster: release-all of %s node %d: %v", tenant, id, err))
		}
	}
	return len(ids)
}

// Transfer reassigns one lease from one tenant to another without the
// node ever touching the free pool — the quota-reclaim move of the
// inter-campaign steering tick, which must not race an admission grant
// for the node in between.
func (s *Shared) Transfer(from, to string, id int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if to == "" {
		return fmt.Errorf("cluster: transfer needs a receiving tenant")
	}
	l, ok := s.leases[id]
	if !ok {
		return fmt.Errorf("cluster: node %d is not leased", id)
	}
	if l.tenant != from {
		return fmt.Errorf("cluster: node %d is leased to %s, not %s", id, l.tenant, from)
	}
	delete(s.tenants[from], id)
	if len(s.tenants[from]) == 0 {
		delete(s.tenants, from)
	}
	l.tenant = to
	held := s.tenants[to]
	if held == nil {
		held = make(map[int]bool)
		s.tenants[to] = held
	}
	held[id] = true
	return nil
}

// Audit verifies lease conservation against the underlying ledger: every
// lease is a live full-capacity allocation on its own node, the tenant
// index matches the lease table exactly, and the pool's aggregate
// allocated counters equal the sum of leased capacities. The invariant
// suites call it after every randomized step; it stays outside the test
// files because the tenancy package's tests audit their pools with it.
func (s *Shared) Audit() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	cores, gpus := 0, 0
	for id, l := range s.leases {
		if l.alloc == nil || l.alloc.Node == nil || l.alloc.Node.ID != id {
			return fmt.Errorf("cluster: lease on node %d holds a mismatched allocation", id)
		}
		nc := s.pool.NodeCap(id)
		if l.alloc.Cores != nc.Cores || l.alloc.GPUs != nc.GPUs || l.alloc.MemGB != nc.MemGB {
			return fmt.Errorf("cluster: lease on node %d is not full-capacity", id)
		}
		if !s.tenants[l.tenant][id] {
			return fmt.Errorf("cluster: lease on node %d missing from %s's tenant index", id, l.tenant)
		}
		cores += nc.Cores
		gpus += nc.GPUs
	}
	indexed := 0
	for tenant, held := range s.tenants {
		for id := range held {
			l, ok := s.leases[id]
			if !ok || l.tenant != tenant {
				return fmt.Errorf("cluster: tenant index says %s holds node %d, lease table disagrees", tenant, id)
			}
			indexed++
		}
	}
	if indexed != len(s.leases) {
		return fmt.Errorf("cluster: tenant index covers %d leases, table has %d", indexed, len(s.leases))
	}
	if got := s.pool.AllocatedCores(); got != cores {
		return fmt.Errorf("cluster: ledger says %d cores allocated, leases account for %d", got, cores)
	}
	if got := s.pool.CapGPUs() - s.pool.FreeGPUs(); got != gpus {
		return fmt.Errorf("cluster: ledger says %d GPUs allocated, leases account for %d", got, gpus)
	}
	return nil
}
