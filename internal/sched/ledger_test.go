package sched

import (
	"fmt"
	"reflect"
	"testing"

	"impress/internal/cluster"
	"impress/internal/xrand"
)

// randomCluster builds a heterogeneous cluster and walks it into a
// random mid-campaign state: partial allocations and a few crashed
// nodes.
func randomCluster(t *testing.T, rng *xrand.RNG, n int) *cluster.Cluster {
	t.Helper()
	caps := make([]cluster.NodeCapacity, n)
	for i := range caps {
		caps[i] = cluster.NodeCapacity{
			Cores: 2 + rng.Intn(28),
			GPUs:  rng.Intn(5),
			MemGB: 8 + rng.Intn(120),
		}
	}
	spec := cluster.Spec{Nodes: n, CoresPerNode: 1}
	for _, nc := range caps {
		spec.CoresPerNode = max(spec.CoresPerNode, nc.Cores)
		spec.GPUsPerNode = max(spec.GPUsPerNode, nc.GPUs)
		spec.MemGBPerNode = max(spec.MemGBPerNode, nc.MemGB)
	}
	c, err := cluster.NewWithNodes(spec, caps)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3*n; i++ {
		c.Allocate(cluster.Request{Cores: 1 + rng.Intn(8), GPUs: rng.Intn(2), MemGB: rng.Intn(32)})
	}
	for i := 0; i < n; i++ {
		if rng.Float64() < 0.15 {
			c.SetNodeDown(i)
		}
	}
	return c
}

// TestOrderEquivalentUnderLedger pins the ledger contract: every policy
// must produce the same order whether it scores fits through the
// cluster's indexed ledger or through a linear scan over the same
// cluster's per-node free counters (nodes). Random queues over random
// mid-campaign cluster states, all registered policies.
func TestOrderEquivalentUnderLedger(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			p, err := New(name)
			if err != nil {
				t.Fatal(err)
			}
			for seed := uint64(1); seed <= 5; seed++ {
				rng := xrand.New(xrand.Derive(seed, "sched-ledger"))
				c := randomCluster(t, rng, 4+rng.Intn(29))
				queue := make([]Task, 1+rng.Intn(12))
				for i := range queue {
					queue[i] = Task{
						UID: uint64(i + 1),
						Req: cluster.Request{Cores: 1 + rng.Intn(16), GPUs: rng.Intn(4), MemGB: rng.Intn(64)},
					}
				}
				snapshot := p.Order(queue, nodes(c.NodeFree()))
				indexed := p.Order(queue, c)
				if !reflect.DeepEqual(snapshot, indexed) {
					t.Fatalf("seed %d: order diverged\nqueue    %+v\nsnapshot %v\nindexed  %v",
						seed, queue, snapshot, indexed)
				}
			}
		})
	}
}

// TestLedgerFormMatchesLinearCluster walks a six-node Amarel cluster into
// a fixed partly allocated state: a linear first-fit scan over its
// per-node free counters must order a fixed seven-task queue identically
// to the cluster's indexed ledger, for every registered policy.
func TestLedgerFormMatchesLinearCluster(t *testing.T) {
	c, err := cluster.New(cluster.AmarelCluster(6))
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(xrand.Derive(7, "sched-ledger-linear"))
	for i := 0; i < 40; i++ {
		c.Allocate(cluster.Request{Cores: 1 + rng.Intn(10), GPUs: rng.Intn(2), MemGB: rng.Intn(32)})
	}
	queue := queueOf(
		req(4, 1, 8), req(28, 0, 64), req(1, 0, 1), req(8, 4, 32),
		req(2, 0, 16), req(14, 2, 48), req(1, 1, 4),
	)
	for _, name := range Names() {
		p, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		a := p.Order(queue, c)
		b := p.Order(queue, nodes(c.NodeFree()))
		if fmt.Sprint(a) != fmt.Sprint(b) {
			t.Errorf("%s: indexed-ledger order %v != linear-snapshot order %v", name, a, b)
		}
	}
}
