package tenancy

import (
	"fmt"
	"testing"

	"impress/internal/cluster"
	"impress/internal/core"
	"impress/internal/steer"
	"impress/internal/xrand"
)

// checkTable checks the owner table against itself and the tenants: the
// free count is the number of unowned nodes, and each tenant's held
// count is the number of nodes the table gives it.
func checkTable(p *pool, tenants []*tenant) error {
	free := 0
	owned := make(map[*tenant]int)
	for _, o := range p.owner {
		if o == nil {
			free++
		} else {
			owned[o]++
		}
	}
	if free != p.free {
		return fmt.Errorf("pool counts %d free nodes, table has %d", p.free, free)
	}
	for _, t := range tenants {
		if t.held != owned[t] {
			return fmt.Errorf("tenant %s holds %d nodes, table gives it %d", t.name(), t.held, owned[t])
		}
	}
	return nil
}

// checkPool checks the pool against the pilots' own ledgers: on top of
// checkTable, only a running tenant holds nodes, and every live node of
// its pilot maps through pilotToPool to a pool node of the same
// capacity that the tenant owns.
func checkPool(s *Service) error {
	if err := checkTable(s.pool, s.tenants); err != nil {
		return err
	}
	for _, t := range s.tenants {
		if t.state != tenantRunning {
			if t.held != 0 {
				return fmt.Errorf("tenant %s is not running but holds %d nodes", t.name(), t.held)
			}
			continue
		}
		clu := t.pilot.Cluster()
		live := 0
		for pid := 0; pid < clu.NodeCount(); pid++ {
			if clu.NodeIsRemoved(pid) {
				continue
			}
			live++
			id, ok := t.pilotToPool[pid]
			if !ok {
				return fmt.Errorf("tenant %s pilot node %d maps to no pool node", t.name(), pid)
			}
			if s.pool.owner[id] != t {
				return fmt.Errorf("tenant %s pilot node %d maps to pool node %d, which it does not own", t.name(), pid, id)
			}
			if clu.NodeCap(pid) != s.pool.caps[id] {
				return fmt.Errorf("tenant %s pilot node %d is %+v, pool node %d is %+v", t.name(), pid, clu.NodeCap(pid), id, s.pool.caps[id])
			}
		}
		if live != t.held {
			return fmt.Errorf("tenant %s pilot has %d live nodes, holds %d leases", t.name(), live, t.held)
		}
	}
	return nil
}

// checkedPolicy runs checkPool each time the Service consults its
// admission policy: at every admission pass (Admit) and every reclaim
// tick (Shares). It keeps the first failure.
type checkedPolicy struct {
	Policy
	s      *Service
	checks int
	err    error
}

func (c *checkedPolicy) check() {
	c.checks++
	if err := checkPool(c.s); err != nil && c.err == nil {
		c.err = fmt.Errorf("check %d at %v: %w", c.checks, c.s.engine.Now(), err)
	}
}

func (c *checkedPolicy) Admit(views []View, free, total int) []Grant {
	c.check()
	return c.Policy.Admit(views, free, total)
}

func (c *checkedPolicy) Shares(views []View, total int) []float64 {
	c.check()
	return c.Policy.Shares(views, total)
}

// runChecked runs the service with checkPool at every admission pass and
// reclaim tick, and once more after the run.
func runChecked(t *testing.T, s *Service) *core.Result {
	t.Helper()
	c := &checkedPolicy{Policy: s.admit, s: s}
	s.admit = c
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if c.err != nil {
		t.Fatal(c.err)
	}
	if err := checkPool(s); err != nil {
		t.Fatalf("after the run: %v", err)
	}
	return res
}

func testPool(t *testing.T, nodes int) *pool {
	t.Helper()
	p, err := newPool(cluster.Spec{Name: "pool", Nodes: nodes, CoresPerNode: 8, GPUsPerNode: 2, MemGBPerNode: 32}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func testTenants(names ...string) []*tenant {
	ts := make([]*tenant, len(names))
	for i, name := range names {
		ts[i] = &tenant{spec: TenantSpec{Name: name}}
	}
	return ts
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	fn()
}

func TestPoolLeaseLowestIDsFirst(t *testing.T) {
	p := testPool(t, 8)
	ts := testTenants("a", "b")
	a, b := ts[0], ts[1]
	if ids := p.lease(a, 3); fmt.Sprint(ids) != "[0 1 2]" {
		t.Fatalf("lease ids %v, want [0 1 2]", ids)
	}
	if p.owner[1] != a || p.free != 5 || a.held != 3 {
		t.Fatalf("node 1 owner %v, %d free, a holds %d; want a, 5, 3", p.owner[1], p.free, a.held)
	}
	p.release(a, 1)
	if ids := p.lease(b, 2); fmt.Sprint(ids) != "[1 3]" {
		t.Fatalf("lease ids %v after releasing node 1, want [1 3]", ids)
	}
	if err := checkTable(p, ts); err != nil {
		t.Fatal(err)
	}
}

// TestPoolLeaseAllOrNothing: a lease beyond the free count panics
// before it touches the table.
func TestPoolLeaseAllOrNothing(t *testing.T) {
	p := testPool(t, 4)
	ts := testTenants("a", "b")
	a, b := ts[0], ts[1]
	p.lease(a, 3)
	mustPanic(t, "a lease beyond the free count", func() { p.lease(b, 2) })
	if p.free != 1 || b.held != 0 {
		t.Fatalf("%d free, b holds %d after the refused lease; want 1 and 0", p.free, b.held)
	}
	if err := checkTable(p, ts); err != nil {
		t.Fatal(err)
	}
}

// TestPoolReleaseOwnershipEnforced: only the owner releases a node, and
// a free node cannot be released.
func TestPoolReleaseOwnershipEnforced(t *testing.T) {
	p := testPool(t, 4)
	ts := testTenants("a", "b")
	a, b := ts[0], ts[1]
	p.lease(a, 2)
	mustPanic(t, "a foreign release", func() { p.release(b, 0) })
	mustPanic(t, "a release of a free node", func() { p.release(a, 3) })
	if err := checkTable(p, ts); err != nil {
		t.Fatalf("refused releases changed the table: %v", err)
	}
	p.release(a, 0)
	if p.owner[0] != nil || p.free != 3 || a.held != 1 {
		t.Fatalf("after the release: node 0 owner %v, %d free, a holds %d", p.owner[0], p.free, a.held)
	}
	p.releaseAll(a)
	if p.free != 4 || a.held != 0 {
		t.Fatalf("%d free nodes, a holds %d after release-all; want 4 and 0", p.free, a.held)
	}
	if err := checkTable(p, ts); err != nil {
		t.Fatal(err)
	}
}

// TestPoolTransferMovesLease: give hands a node from its owner to
// another tenant without the free pool, and refuses a non-owner.
func TestPoolTransferMovesLease(t *testing.T) {
	p := testPool(t, 4)
	ts := testTenants("a", "b")
	a, b := ts[0], ts[1]
	p.lease(a, 2)
	mustPanic(t, "a transfer by a non-owner", func() { p.give(b, a, 0) })
	if err := checkTable(p, ts); err != nil {
		t.Fatalf("the refused transfer changed the table: %v", err)
	}
	p.give(a, b, 1)
	if p.owner[1] != b || p.free != 2 || a.held != 1 || b.held != 1 {
		t.Fatalf("after the transfer: node 1 owner %v, %d free, holds %d/%d", p.owner[1], p.free, a.held, b.held)
	}
	if err := checkTable(p, ts); err != nil {
		t.Fatal(err)
	}
}

// TestPoolRandomizedInvariants drives a seeded random walk of leases,
// releases and transfers, checking the table after every step.
func TestPoolRandomizedInvariants(t *testing.T) {
	rng := xrand.New(xrand.Derive(42, "pool-invariants"))
	p := testPool(t, 16)
	ts := testTenants("t0", "t1", "t2", "t3")
	owned := func(who *tenant) []int {
		var ids []int
		for id, o := range p.owner {
			if o == who {
				ids = append(ids, id)
			}
		}
		return ids
	}
	for step := 0; step < 500; step++ {
		who := ts[rng.Intn(len(ts))]
		switch rng.Intn(4) {
		case 0:
			if want := 1 + rng.Intn(4); want <= p.free {
				if ids := p.lease(who, want); len(ids) != want {
					t.Fatalf("step %d: leased %d nodes, want %d", step, len(ids), want)
				}
			}
		case 1:
			if held := owned(who); len(held) > 0 {
				p.release(who, held[rng.Intn(len(held))])
			}
		case 2:
			p.releaseAll(who)
		case 3:
			to := ts[rng.Intn(len(ts))]
			if held := owned(who); len(held) > 0 && to != who {
				p.give(who, to, held[rng.Intn(len(held))])
			}
		}
		if err := checkTable(p, ts); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		held := 0
		for _, tn := range ts {
			held += tn.held
		}
		if held+p.free != len(p.owner) {
			t.Fatalf("step %d: %d held + %d free != %d nodes", step, held, p.free, len(p.owner))
		}
	}
}

// oneMove is a reclaim policy that proposes a single move, from t0 to
// t1, at the first tick where both hold nodes, and counts the ticks
// after it.
type oneMove struct {
	moved bool
	after int
}

func (*oneMove) Name() string { return "one-move" }

func (m *oneMove) Decide(stats []steer.TenantStat) []steer.Transfer {
	if m.moved {
		m.after++
		return nil
	}
	from, to := -1, -1
	for i, st := range stats {
		switch {
		case st.Name == "t0" && st.Nodes > 0:
			from = i
		case st.Name == "t1" && st.Nodes > 0:
			to = i
		}
	}
	if from < 0 || to < 0 {
		return nil
	}
	m.moved = true
	return []steer.Transfer{{From: from, To: to}}
}

// TestServiceMoveNodeIntoRunningTenant forces a reclaim into a running
// tenant, the one path that hands a lease from tenant to tenant without
// the free pool: t0 gives one of its two nodes to t1, and the pool
// still agrees with both pilots at every later tick.
func TestServiceMoveNodeIntoRunningTenant(t *testing.T) {
	spec := testSpec(2, 3, 1, "fcfs-admit", "fairshare", "instant", 42)
	spec.Tenants[0].Nodes = 2
	s, err := NewService(spec)
	if err != nil {
		t.Fatal(err)
	}
	move := &oneMove{}
	s.reclaim = move
	res := runChecked(t, s)
	if !move.moved || move.after == 0 {
		t.Fatalf("moved %v, %d ticks after the move; want a move and a tick after it", move.moved, move.after)
	}
	t0, t1 := res.Tenants[0], res.Tenants[1]
	if t0.Reclaimed != 1 || t1.Granted != 1 {
		t.Fatalf("t0 reclaimed %d, t1 granted %d; want 1 and 1", t0.Reclaimed, t1.Granted)
	}
	if t0.Granted != 0 || t1.Reclaimed != 0 {
		t.Fatalf("t0 granted %d, t1 reclaimed %d; want 0 and 0", t0.Granted, t1.Reclaimed)
	}
}
