package cluster

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"impress/internal/xrand"
)

// differentialCaps builds a random heterogeneous fleet: a few distinct
// shapes, GPU nodes mixed in, never degenerate.
func differentialCaps(rng *xrand.RNG, n int) []NodeCapacity {
	shapes := make([]NodeCapacity, 1+rng.Intn(4))
	for i := range shapes {
		shapes[i] = NodeCapacity{
			Cores: 2 + rng.Intn(30),
			GPUs:  rng.Intn(5),
			MemGB: 8 + rng.Intn(120),
		}
	}
	caps := make([]NodeCapacity, n)
	for i := range caps {
		caps[i] = shapes[rng.Intn(len(shapes))]
	}
	return caps
}

// hosts reports whether free counters (or a capacity) can host r.
func hosts(cores, gpus, mem int, r Request) bool {
	return cores >= r.Cores && gpus >= r.GPUs && mem >= r.MemGB
}

// scanFirstFit is the linear first-fit scan the segment tree replaces:
// the lowest-ID up, non-removed, non-avoided node whose free counters can
// host r, or -1. Out-of-range avoid IDs match no node.
func scanFirstFit(c *Cluster, r Request, avoid []int) int {
	if !c.Fits(r) {
		return -1
	}
	for _, n := range c.nodes {
		if n.down || n.removed || slices.Contains(avoid, n.ID) {
			continue
		}
		if hosts(n.freeCores, n.freeGPUs, n.freeMemGB, r) {
			return n.ID
		}
	}
	return -1
}

// scanFitting is VisitFitting's reference: the (id, free) sequence of
// every up, non-removed node that can host r, ascending.
func scanFitting(c *Cluster, r Request) []string {
	var out []string
	for _, n := range c.nodes {
		if !n.down && !n.removed && hosts(n.freeCores, n.freeGPUs, n.freeMemGB, r) {
			out = append(out, fmt.Sprintf("%d:%v", n.ID, Request{Cores: n.freeCores, GPUs: n.freeGPUs, MemGB: n.freeMemGB}))
		}
	}
	return out
}

// visit collects VisitFitting's (id, free) sequence for comparison.
func visit(c *Cluster, r Request) []string {
	var out []string
	c.VisitFitting(r, func(id int, free Request) bool {
		out = append(out, fmt.Sprintf("%d:%v", id, free))
		return true
	})
	return out
}

// checkAgainstScans compares every O(1) aggregate, the transferable set
// and the full VisitFitting walk with scans of the node slice.
func checkAgainstScans(t *testing.T, c *Cluster, step int) {
	t.Helper()
	type agg struct {
		FreeCores, FreeGPUs int
		CapCores, CapGPUs   int
		Up                  int
	}
	got := agg{c.FreeCores(), c.FreeGPUs(), c.CapCores(), c.CapGPUs(), c.UpNodeCount()}
	var want agg
	var idle []int
	for _, n := range c.nodes {
		want.FreeCores += n.freeCores
		want.FreeGPUs += n.freeGPUs
		want.CapCores += n.cap.Cores
		want.CapGPUs += n.cap.GPUs
		if !n.removed && !n.down {
			want.Up++
		}
		if n.idle() {
			idle = append(idle, n.ID)
		}
	}
	if got != want {
		t.Fatalf("step %d: aggregates diverged\nindexed %+v\nscan    %+v", step, got, want)
	}
	if tr := c.TransferableNodes(); !reflect.DeepEqual(tr, idle) {
		t.Fatalf("step %d: transferable sets diverged: %v vs %v", step, tr, idle)
	}
	// The empty request fits every allocatable leaf, so this walk checks
	// the whole index against the node slice.
	if vi, vs := visit(c, Request{}), scanFitting(c, Request{}); !reflect.DeepEqual(vi, vs) {
		t.Fatalf("step %d: index leaves diverged:\nindexed %v\nscan    %v", step, vi, vs)
	}
}

func randomRequest(rng *xrand.RNG) Request {
	r := Request{Cores: rng.Intn(20), GPUs: rng.Intn(4), MemGB: rng.Intn(96)}
	if r.Cores == 0 && r.GPUs == 0 {
		r.Cores = 1
	}
	return r
}

// TestDifferentialIndexedVsLinear drives the indexed ledger through
// randomized operation sequences — allocate, exclusion-list allocate,
// release, crash, repair, transfer out, transfer in — with a linear scan
// of its own node slice as the oracle: before every allocation the scan
// predicts the first-fit node, and after every step the aggregates, the
// transferable set and the VisitFitting walk must match scans. This is
// the byte-identity argument for the segment tree, made executable.
func TestDifferentialIndexedVsLinear(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8, 17, 33, 64} {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("n=%d/seed=%d", n, seed), func(t *testing.T) {
				runDifferential(t, n, seed)
			})
		}
	}
}

func runDifferential(t *testing.T, n int, seed uint64) {
	rng := xrand.New(xrand.Derive(seed, "differential"))
	caps := differentialCaps(rng, n)
	spec := Spec{Nodes: n, CoresPerNode: 1}
	for _, nc := range caps {
		spec.CoresPerNode = max(spec.CoresPerNode, nc.Cores)
		spec.GPUsPerNode = max(spec.GPUsPerNode, nc.GPUs)
		spec.MemGBPerNode = max(spec.MemGBPerNode, nc.MemGB)
	}
	c, err := NewWithNodes(spec, caps)
	if err != nil {
		t.Fatal(err)
	}
	var allocs []*Alloc

	for step := 0; step < 400; step++ {
		switch op := rng.Intn(10); {
		case op < 4: // allocate, sometimes with an exclusion list
			r := randomRequest(rng)
			var avoid []int
			if rng.Float64() < 0.3 {
				for k := rng.Intn(4); k >= 0; k-- {
					// Out-of-range IDs deliberately included: the ledger
					// must ignore them.
					avoid = append(avoid, rng.Intn(c.NodeCount()+2)-1)
				}
			}
			want := scanFirstFit(c, r, avoid)
			a := c.AllocateExcluding(r, avoid)
			got := -1
			if a != nil {
				got = a.Node.ID
				allocs = append(allocs, a)
			}
			if got != want {
				t.Fatalf("step %d: chose node %d, linear scan chose %d (req %+v avoid %v)",
					step, got, want, r, avoid)
			}
			fits := false
			for _, n := range c.nodes {
				if !n.removed && !slices.Contains(avoid, n.ID) && hosts(n.cap.Cores, n.cap.GPUs, n.cap.MemGB, r) {
					fits = c.Fits(r)
					break
				}
			}
			if got := c.FitsOutside(r, avoid); got != fits {
				t.Fatalf("step %d: FitsOutside(%+v, %v) = %v, scan says %v", step, r, avoid, got, fits)
			}
		case op < 6: // release a random outstanding allocation
			if len(allocs) == 0 {
				continue
			}
			k := rng.Intn(len(allocs))
			c.Release(allocs[k])
			last := len(allocs) - 1
			allocs[k], allocs = allocs[last], allocs[:last]
		case op < 7: // crash or repair a random non-removed node
			id := rng.Intn(c.NodeCount())
			if c.NodeIsRemoved(id) {
				continue
			}
			if rng.Float64() < 0.5 {
				c.SetNodeDown(id)
			} else {
				c.SetNodeUp(id)
			}
		case op < 8: // transfer a node out (refusals must match too)
			id := rng.Intn(c.NodeCount())
			n := c.nodes[id]
			wantCap, refuse := n.cap, !n.idle()
			got, err := c.RemoveNode(id)
			if (err != nil) != refuse || (err == nil && got != wantCap) {
				t.Fatalf("step %d: RemoveNode(%d) = (%v,%v), want capacity %v refused=%v",
					step, id, got, err, wantCap, refuse)
			}
		case op < 9: // transfer a node in
			nc := NodeCapacity{Cores: 1 + rng.Intn(16), GPUs: rng.Intn(3), MemGB: 4 + rng.Intn(64)}
			want := len(c.nodes)
			if id := c.AddNode(nc); id != want {
				t.Fatalf("step %d: AddNode ID %d, want %d", step, id, want)
			}
		default: // probe: VisitFitting order and contents must match
			r := randomRequest(rng)
			if vi, vs := visit(c, r), scanFitting(c, r); !reflect.DeepEqual(vi, vs) {
				t.Fatalf("step %d: VisitFitting diverged for %+v:\nindexed %v\nscan    %v", step, r, vi, vs)
			}
		}
		checkAgainstScans(t, c, step)
	}
}

// TestAllocationHotPathAllocates pins the hot path's allocation budget:
// Place allocates nothing, and the pointer-returning wrappers one *Alloc
// per placement — epoch-stamped exclusion and the segment-tree descent
// are both allocation-free.
func TestAllocationHotPathAllocates(t *testing.T) {
	c, err := New(AmarelCluster(8))
	if err != nil {
		t.Fatal(err)
	}
	r := Request{Cores: 4, GPUs: 1, MemGB: 8}
	avoid := []int{0, 1, 2}

	for _, av := range [][]int{nil, avoid} {
		if got := testing.AllocsPerRun(100, func() {
			a, ok := c.Place(r, av)
			if !ok {
				t.Fatal("placement failed on an empty cluster")
			}
			c.Release(&a)
		}); got != 0 {
			t.Errorf("Place(avoid=%v)+Release: %.1f allocs/op, want 0", av, got)
		}
	}
	if got := testing.AllocsPerRun(100, func() {
		a := c.Allocate(r)
		c.Release(a)
	}); got > 1 {
		t.Errorf("Allocate+Release: %.1f allocs/op, want <= 1", got)
	}
	if got := testing.AllocsPerRun(100, func() {
		a := c.AllocateExcluding(r, avoid)
		c.Release(a)
	}); got > 1 {
		t.Errorf("AllocateExcluding: %.1f allocs/op, want <= 1", got)
	}
	if got := testing.AllocsPerRun(100, func() {
		c.VisitFitting(r, func(int, Request) bool { return true })
	}); got > 0 {
		t.Errorf("VisitFitting: %.1f allocs/op, want 0", got)
	}
}

// BenchmarkAllocScaling measures a single allocate/release round trip
// against cluster size, the indexed ledger against the linear first-fit
// scan it replaced. The cluster is driven to the scan's worst case:
// every node but the last is completely full, so first-fit must reject
// n-1 nodes before placing. The scan pays O(n) per placement; the
// segment tree prunes full subtrees and pays O(log n). The differential
// suite pins both to the same node, so this is a pure mechanism A/B.
func BenchmarkAllocScaling(b *testing.B) {
	for _, n := range []int{64, 512, 4096} {
		for _, mode := range []struct {
			name  string
			alloc func(c *Cluster, r Request) *Alloc
		}{
			{"indexed", (*Cluster).Allocate},
			{"linear", func(c *Cluster, r Request) *Alloc {
				if id := scanFirstFit(c, r, nil); id >= 0 {
					a := c.take(c.nodes[id], r)
					return &a
				}
				return nil
			}},
		} {
			b.Run(fmt.Sprintf("nodes=%d/%s", n, mode.name), func(b *testing.B) {
				spec := AmarelCluster(n)
				c, err := New(spec)
				if err != nil {
					b.Fatal(err)
				}
				full := Request{Cores: spec.CoresPerNode, GPUs: spec.GPUsPerNode, MemGB: spec.MemGBPerNode}
				for i := 0; i < n-1; i++ {
					if c.Allocate(full) == nil {
						b.Fatalf("fill allocation %d failed", i)
					}
				}
				r := Request{Cores: 4, GPUs: 1, MemGB: 8}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					a := mode.alloc(c, r)
					if a == nil {
						b.Fatal("steady-state allocation failed")
					}
					c.Release(a)
				}
			})
		}
	}
}
