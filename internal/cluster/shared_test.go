package cluster

import (
	"fmt"
	"sync"
	"testing"

	"impress/internal/xrand"
)

func newTestShared(t *testing.T, nodes int) *Shared {
	t.Helper()
	s, err := NewShared(Spec{Name: "pool", Nodes: nodes, CoresPerNode: 8, GPUsPerNode: 2, MemGBPerNode: 32}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSharedLeaseLowestIDsFirst(t *testing.T) {
	s := newTestShared(t, 8)
	ids, err := s.Lease("a", 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 2}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("lease ids %v, want %v", ids, want)
		}
	}
	if l := s.leases[1]; l == nil || l.tenant != "a" {
		t.Fatalf("node 1 lease = %+v, want a's", l)
	}
	if free := s.FreeNodes(); free != 5 {
		t.Fatalf("free nodes %d, want 5", free)
	}
	if err := s.Audit(); err != nil {
		t.Fatal(err)
	}
}

func TestSharedLeaseAllOrNothing(t *testing.T) {
	s := newTestShared(t, 4)
	if _, err := s.Lease("a", 3); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Lease("b", 2); err == nil {
		t.Fatal("over-capacity lease succeeded")
	}
	// The failed grant must not have leased anything.
	if free := s.FreeNodes(); free != 1 {
		t.Fatalf("free nodes %d after denied grant, want 1", free)
	}
	if got := s.Leased("b"); len(got) != 0 {
		t.Fatalf("denied tenant holds %v", got)
	}
	if err := s.Audit(); err != nil {
		t.Fatal(err)
	}
}

func TestSharedReleaseOwnershipEnforced(t *testing.T) {
	s := newTestShared(t, 4)
	if _, err := s.Lease("a", 2); err != nil {
		t.Fatal(err)
	}
	if err := s.Release("b", 0); err == nil {
		t.Fatal("foreign release succeeded")
	}
	if err := s.Release("a", 3); err == nil {
		t.Fatal("release of unleased node succeeded")
	}
	if err := s.Release("a", 0); err != nil {
		t.Fatal(err)
	}
	if s.leases[0] != nil {
		t.Fatal("node 0 still owned after release")
	}
	if n := s.ReleaseAll("a"); n != 1 {
		t.Fatalf("release-all returned %d, want 1", n)
	}
	if free := s.FreeNodes(); free != 4 {
		t.Fatalf("free nodes %d, want 4", free)
	}
	if err := s.Audit(); err != nil {
		t.Fatal(err)
	}
}

func TestSharedTransferMovesLease(t *testing.T) {
	s := newTestShared(t, 4)
	if _, err := s.Lease("a", 2); err != nil {
		t.Fatal(err)
	}
	if err := s.Transfer("b", "c", 0); err == nil {
		t.Fatal("transfer by non-owner succeeded")
	}
	if err := s.Transfer("a", "b", 1); err != nil {
		t.Fatal(err)
	}
	if l := s.leases[1]; l == nil || l.tenant != "b" {
		t.Fatalf("node 1 lease %+v after transfer, want b's", l)
	}
	// The node never touched the free pool.
	if free := s.FreeNodes(); free != 2 {
		t.Fatalf("free nodes %d, want 2", free)
	}
	if got := s.Leased("a"); len(got) != 1 || got[0] != 0 {
		t.Fatalf("a holds %v, want [0]", got)
	}
	if err := s.Audit(); err != nil {
		t.Fatal(err)
	}
}

// TestSharedRandomizedInvariants drives a seeded random walk of grants,
// releases, and transfers, auditing ledger conservation after every step.
func TestSharedRandomizedInvariants(t *testing.T) {
	rng := xrand.New(xrand.Derive(42, "shared-invariants"))
	s := newTestShared(t, 16)
	tenants := []string{"t0", "t1", "t2", "t3"}
	for step := 0; step < 500; step++ {
		who := tenants[rng.Intn(len(tenants))]
		switch rng.Intn(4) {
		case 0:
			want := 1 + rng.Intn(4)
			if ids, err := s.Lease(who, want); err == nil {
				if len(ids) != want {
					t.Fatalf("step %d: granted %d nodes, want %d", step, len(ids), want)
				}
			}
		case 1:
			if held := s.Leased(who); len(held) > 0 {
				if err := s.Release(who, held[rng.Intn(len(held))]); err != nil {
					t.Fatalf("step %d: release: %v", step, err)
				}
			}
		case 2:
			s.ReleaseAll(who)
		case 3:
			to := tenants[rng.Intn(len(tenants))]
			if held := s.Leased(who); len(held) > 0 && to != who {
				if err := s.Transfer(who, to, held[rng.Intn(len(held))]); err != nil {
					t.Fatalf("step %d: transfer: %v", step, err)
				}
			}
		}
		if err := s.Audit(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		held := 0
		for _, tn := range tenants {
			held += len(s.Leased(tn))
		}
		if held+s.FreeNodes() != s.TotalNodes() {
			t.Fatalf("step %d: %d held + %d free != %d total", step, held, s.FreeNodes(), s.TotalNodes())
		}
	}
}

// TestSharedConcurrentHammer races many tenants against the lease API —
// run under -race in CI — and checks conservation at every quiescent
// point each goroutine observes, then audits the final state.
func TestSharedConcurrentHammer(t *testing.T) {
	s := newTestShared(t, 32)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			who := fmt.Sprintf("t%d", w)
			rng := xrand.New(xrand.Derive(99, who))
			for i := 0; i < 300; i++ {
				switch rng.Intn(3) {
				case 0:
					s.Lease(who, 1+rng.Intn(3))
				case 1:
					if held := s.Leased(who); len(held) > 0 {
						s.Release(who, held[0])
					}
				case 2:
					s.ReleaseAll(who)
				}
				if free, total := s.FreeNodes(), s.TotalNodes(); free < 0 || free > total {
					panic(fmt.Sprintf("free %d outside [0,%d]", free, total))
				}
			}
			s.ReleaseAll(who)
		}(w)
	}
	wg.Wait()
	if err := s.Audit(); err != nil {
		t.Fatal(err)
	}
	if free := s.FreeNodes(); free != s.TotalNodes() {
		t.Fatalf("free %d after teardown, want %d", free, s.TotalNodes())
	}
}
