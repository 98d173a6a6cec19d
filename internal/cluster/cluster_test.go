package cluster

import (
	"testing"
	"testing/quick"

	"impress/internal/xrand"
)

// memGB sums the free and total memory over c's nodes. Crashed nodes
// count with their outstanding allocations; a node transferred away holds
// zeroed counters and adds nothing.
func memGB(c *Cluster) (free, total int) {
	for _, n := range c.nodes {
		free += n.freeMemGB
		total += n.cap.MemGB
	}
	return free, total
}

// activeNodes counts the nodes still part of c: not transferred away.
func activeNodes(c *Cluster) int {
	n := 0
	for i := range c.NodeCount() {
		if !c.NodeIsRemoved(i) {
			n++
		}
	}
	return n
}

func TestAmarelSpec(t *testing.T) {
	s := AmarelNode()
	if s.TotalCores() != 28 || s.TotalGPUs() != 4 || s.Nodes*s.MemGBPerNode != 128 {
		t.Fatalf("Amarel spec wrong: %+v", s)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSpecValidation(t *testing.T) {
	bad := []Spec{
		{Nodes: 0, CoresPerNode: 1, MemGBPerNode: 1},
		{Nodes: 1, CoresPerNode: 0, MemGBPerNode: 1},
		{Nodes: 1, CoresPerNode: 1, GPUsPerNode: -1, MemGBPerNode: 1},
		{Nodes: 1, CoresPerNode: 1, MemGBPerNode: 0},
	}
	for _, s := range bad {
		if s.Validate() == nil {
			t.Errorf("spec %+v accepted", s)
		}
	}
	if _, err := New(Spec{}); err == nil {
		t.Error("New accepted zero spec")
	}
}

func TestAllocateRelease(t *testing.T) {
	c, err := New(AmarelNode())
	if err != nil {
		t.Fatal(err)
	}
	a := c.Allocate(Request{Cores: 8, GPUs: 1, MemGB: 16})
	if a == nil {
		t.Fatal("allocation failed on empty cluster")
	}
	if mem, _ := memGB(c); c.FreeCores() != 20 || c.FreeGPUs() != 3 || mem != 112 {
		t.Fatalf("free after alloc: %d cores %d gpus %d mem", c.FreeCores(), c.FreeGPUs(), mem)
	}
	if c.AllocatedCores() != 8 || c.CapGPUs()-c.FreeGPUs() != 1 {
		t.Fatal("allocated counters wrong")
	}
	c.Release(a)
	if mem, _ := memGB(c); c.FreeCores() != 28 || c.FreeGPUs() != 4 || mem != 128 {
		t.Fatal("release did not restore resources")
	}
}

func TestAllocateExhaustion(t *testing.T) {
	c, _ := New(AmarelNode())
	var allocs []*Alloc
	for i := 0; i < 4; i++ {
		a := c.Allocate(Request{Cores: 7, GPUs: 1})
		if a == nil {
			t.Fatalf("alloc %d failed", i)
		}
		allocs = append(allocs, a)
	}
	if a := c.Allocate(Request{Cores: 1}); a != nil {
		t.Fatal("allocated beyond capacity")
	}
	c.Release(allocs[2])
	if a := c.Allocate(Request{Cores: 7, GPUs: 1}); a == nil {
		t.Fatal("allocation failed after release")
	}
}

func TestFitsRejectsImpossible(t *testing.T) {
	c, _ := New(AmarelNode())
	cases := []Request{
		{Cores: 29},
		{Cores: 1, GPUs: 5},
		{Cores: 1, MemGB: 129},
		{Cores: -1},
		{GPUs: -1},
		{}, // empty request
	}
	for _, r := range cases {
		if c.Fits(r) {
			t.Errorf("Fits(%+v) = true", r)
		}
		if c.Allocate(r) != nil {
			t.Errorf("Allocate(%+v) succeeded", r)
		}
	}
	if !c.Fits(Request{GPUs: 1}) {
		t.Error("GPU-only request rejected")
	}
}

func TestDoubleReleasePanics(t *testing.T) {
	c, _ := New(AmarelNode())
	a := c.Allocate(Request{Cores: 1})
	c.Release(a)
	defer func() {
		if recover() == nil {
			t.Fatal("double release did not panic")
		}
	}()
	c.Release(a)
}

func TestReleaseNilPanics(t *testing.T) {
	c, _ := New(AmarelNode())
	defer func() {
		if recover() == nil {
			t.Fatal("nil release did not panic")
		}
	}()
	c.Release(nil)
}

func TestMultiNodeFirstFit(t *testing.T) {
	c, _ := New(Spec{Name: "x", Nodes: 3, CoresPerNode: 4, GPUsPerNode: 1, MemGBPerNode: 8})
	a1 := c.Allocate(Request{Cores: 3})
	a2 := c.Allocate(Request{Cores: 3})
	a3 := c.Allocate(Request{Cores: 3})
	if a1 == nil || a2 == nil || a3 == nil {
		t.Fatal("allocations failed")
	}
	// First fit must have used three distinct nodes.
	if a1.Node.ID == a2.Node.ID || a2.Node.ID == a3.Node.ID {
		t.Fatal("first-fit did not spill to next node")
	}
	// A 2-core task no longer fits anywhere (1 core free per node)...
	if c.Allocate(Request{Cores: 2}) != nil {
		t.Fatal("allocated task spanning free fragments")
	}
	// ...but three 1-core tasks do.
	for i := 0; i < 3; i++ {
		if c.Allocate(Request{Cores: 1}) == nil {
			t.Fatal("1-core allocation failed")
		}
	}
}

// Property: any sequence of allocations and releases keeps free counters
// within [0, capacity] and conserves total resources.
func TestPropertyConservation(t *testing.T) {
	check := func(seed uint64, opsRaw uint8) bool {
		rng := xrand.New(seed)
		c, _ := New(Spec{Name: "p", Nodes: 2, CoresPerNode: 8, GPUsPerNode: 2, MemGBPerNode: 32})
		var live []*Alloc
		ops := int(opsRaw)%200 + 10
		for i := 0; i < ops; i++ {
			if rng.Float64() < 0.6 || len(live) == 0 {
				r := Request{Cores: rng.Intn(9), GPUs: rng.Intn(3), MemGB: rng.Intn(33)}
				if a := c.Allocate(r); a != nil {
					live = append(live, a)
				}
			} else {
				k := rng.Intn(len(live))
				c.Release(live[k])
				live = append(live[:k], live[k+1:]...)
			}
			mem, _ := memGB(c)
			if c.FreeCores() < 0 || c.FreeCores() > 16 ||
				c.FreeGPUs() < 0 || c.FreeGPUs() > 4 ||
				mem < 0 || mem > 64 {
				return false
			}
			// Conservation: free + live allocations == capacity.
			cores, gpus := 0, 0
			for _, a := range live {
				cores += a.Cores
				gpus += a.GPUs
			}
			if c.FreeCores()+cores != 16 || c.FreeGPUs()+gpus != 4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestNodeDownWithholdsCapacity(t *testing.T) {
	c, err := New(Spec{Name: "dual", Nodes: 2, CoresPerNode: 8, GPUsPerNode: 2, MemGBPerNode: 32})
	if err != nil {
		t.Fatal(err)
	}
	wide := Request{Cores: 8, GPUs: 2, MemGB: 32}
	c.SetNodeDown(0)
	if !c.NodeIsDown(0) || c.NodeIsDown(1) {
		t.Fatal("down flags wrong")
	}
	if got := c.DownNodes(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("DownNodes = %v", got)
	}
	// Free counters still report the full ledger; only placement is
	// withheld.
	if c.FreeCores() != 16 {
		t.Fatalf("FreeCores = %d", c.FreeCores())
	}
	a1 := c.Allocate(wide)
	if a1 == nil || a1.Node.ID != 1 {
		t.Fatalf("allocation went to %+v, want node 1", a1)
	}
	if a := c.Allocate(Request{Cores: 1}); a != nil {
		t.Fatalf("allocated on a down node: %+v", a)
	}
	// The policy snapshot shows zero free capacity on the down node.
	free := c.NodeFree()
	if free[0] != (Request{}) {
		t.Fatalf("down node free snapshot = %+v", free[0])
	}
	c.SetNodeUp(0)
	a2 := c.Allocate(Request{Cores: 1})
	if a2 == nil || a2.Node.ID != 0 {
		t.Fatalf("repaired node did not take the allocation: %+v", a2)
	}
	c.Release(a1)
	c.Release(a2)
	if c.FreeCores() != 16 || c.FreeGPUs() != 4 {
		t.Fatal("ledger leaked across down/up cycle")
	}
}

func TestReleaseToDownNodeKeepsLedgerExact(t *testing.T) {
	c, err := New(Spec{Name: "solo", Nodes: 1, CoresPerNode: 8, GPUsPerNode: 0, MemGBPerNode: 16})
	if err != nil {
		t.Fatal(err)
	}
	a := c.Allocate(Request{Cores: 6, MemGB: 8})
	if a == nil {
		t.Fatal("allocation failed")
	}
	c.SetNodeDown(0)
	c.Release(a) // crash kills the resident task; its resources return
	if mem, _ := memGB(c); c.FreeCores() != 8 || mem != 16 {
		t.Fatal("release to a down node lost resources")
	}
	if got := c.Allocate(Request{Cores: 1}); got != nil {
		t.Fatal("down node accepted work after release")
	}
	c.SetNodeUp(0)
	if got := c.Allocate(Request{Cores: 8, MemGB: 16}); got == nil {
		t.Fatal("full capacity not restored after repair")
	}
}

func TestAllocateExcluding(t *testing.T) {
	c, err := New(Spec{Name: "trio", Nodes: 3, CoresPerNode: 4, GPUsPerNode: 0, MemGBPerNode: 8})
	if err != nil {
		t.Fatal(err)
	}
	r := Request{Cores: 4, MemGB: 8}
	a := c.AllocateExcluding(r, []int{0, 1})
	if a == nil || a.Node.ID != 2 {
		t.Fatalf("exclusion ignored: %+v", a)
	}
	if got := c.AllocateExcluding(r, []int{0, 1}); got != nil {
		t.Fatalf("allocated beyond capacity: %+v", got)
	}
	// Excluding every node never allocates, even with free capacity.
	if got := c.AllocateExcluding(Request{Cores: 1}, []int{0, 1, 2}); got != nil {
		t.Fatalf("allocated on an excluded node: %+v", got)
	}
	// Nil exclusion is exactly Allocate.
	b := c.AllocateExcluding(Request{Cores: 1}, nil)
	if b == nil || b.Node.ID != 0 {
		t.Fatalf("nil exclusion diverged from Allocate: %+v", b)
	}
}

func TestNodeTransfer(t *testing.T) {
	cpu, gpu, err := SplitCPUGPU(AmarelNode(), 8, 32)
	if err != nil {
		t.Fatal(err)
	}
	cpu.Nodes, gpu.Nodes = 2, 2
	src, _ := New(gpu)
	dst, _ := New(cpu)

	ids := src.TransferableNodes()
	if len(ids) != 2 {
		t.Fatalf("fresh 2-node cluster has %v transferable nodes", ids)
	}
	nc, err := src.RemoveNode(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if nc != (NodeCapacity{Cores: gpu.CoresPerNode, GPUs: gpu.GPUsPerNode, MemGB: gpu.MemGBPerNode}) {
		t.Fatalf("transferred capacity %+v", nc)
	}
	if n := activeNodes(src); n != 1 || src.CapCores() != gpu.CoresPerNode || src.CapGPUs() != gpu.GPUsPerNode {
		t.Fatalf("source after transfer: %d nodes, %d cores, %d gpus",
			n, src.CapCores(), src.CapGPUs())
	}
	before := dst.FreedStamp()
	id := dst.AddNode(nc)
	if dst.FreedStamp() == before {
		t.Fatal("AddNode did not advance the freed watermark")
	}
	if n := activeNodes(dst); n != 3 || dst.CapGPUs() != gpu.GPUsPerNode {
		t.Fatalf("destination after transfer: %d nodes, %d gpus", n, dst.CapGPUs())
	}
	// The borrowed node serves the receiver's own task shapes out of its
	// transferred capacity (its GPUs ride along idle on a CPU partition —
	// Fits stays pinned to the nominal spec).
	a := dst.AllocateExcluding(Request{Cores: 2, MemGB: 4}, []int{0, 1})
	if a == nil || a.Node.ID != id {
		t.Fatalf("allocation on borrowed node failed: %+v", a)
	}
	if got := dst.NodeFree()[id]; got != (Request{Cores: nc.Cores - 2, GPUs: nc.GPUs, MemGB: nc.MemGB - 4}) {
		t.Fatalf("borrowed node free counters %+v", got)
	}
	if dst.Fits(Request{Cores: 1, GPUs: 1}) {
		t.Fatal("borrowed GPUs widened the nominal Fits envelope")
	}
	dst.Release(a)

	// The tombstone is inert: no allocation lands on it, it is not
	// transferable again, and its free/capacity views read zero.
	if _, err := src.RemoveNode(ids[0]); err == nil {
		t.Fatal("removed node transferred twice")
	}
	if src.NodeFree()[ids[0]] != (Request{}) {
		t.Fatal("removed node reports free capacity")
	}
	for i := 0; i < 8; i++ {
		if a := src.Allocate(Request{Cores: 1}); a != nil && a.Node.ID == ids[0] {
			t.Fatal("allocation landed on a removed node")
		}
	}
	if !src.NodeIsRemoved(ids[0]) || src.NodeIsRemoved(ids[1]) {
		t.Fatal("NodeIsRemoved wrong")
	}
}

func TestRemoveNodeRespectsDownAndBusy(t *testing.T) {
	c, _ := New(AmarelCluster(2))
	a := c.Allocate(Request{Cores: 1})
	if a == nil {
		t.Fatal("allocation failed")
	}
	if _, err := c.RemoveNode(a.Node.ID); err == nil {
		t.Fatal("removed a node with an in-flight allocation")
	}
	other := 1 - a.Node.ID
	c.SetNodeDown(other)
	if _, err := c.RemoveNode(other); err == nil {
		t.Fatal("removed a down node")
	}
	if got := c.TransferableNodes(); len(got) != 0 {
		t.Fatalf("busy+down cluster reports transferable nodes %v", got)
	}
	c.SetNodeUp(other)
	c.Release(a)
	if got := c.TransferableNodes(); len(got) != 2 {
		t.Fatalf("recovered cluster reports %v", got)
	}
}

func TestTransferConservesCapacity(t *testing.T) {
	cpu, gpu, err := SplitCPUGPU(AmarelNode(), 8, 32)
	if err != nil {
		t.Fatal(err)
	}
	cpu.Nodes, gpu.Nodes = 3, 3
	a, _ := New(cpu)
	b, _ := New(gpu)
	totCores := a.CapCores() + b.CapCores()
	totGPUs := a.CapGPUs() + b.CapGPUs()
	capMem := func() int {
		_, memA := memGB(a)
		_, memB := memGB(b)
		return memA + memB
	}
	totMem := capMem()
	move := func(src, dst *Cluster) {
		ids := src.TransferableNodes()
		if len(ids) == 0 {
			t.Fatal("nothing transferable")
		}
		nc, err := src.RemoveNode(ids[0])
		if err != nil {
			t.Fatal(err)
		}
		dst.AddNode(nc)
	}
	move(b, a)
	move(b, a)
	move(a, b) // send a borrowed GPU node home
	if a.CapCores()+b.CapCores() != totCores ||
		a.CapGPUs()+b.CapGPUs() != totGPUs ||
		capMem() != totMem {
		t.Fatalf("transfers did not conserve capacity: %d/%d cores, %d/%d gpus",
			a.CapCores()+b.CapCores(), totCores, a.CapGPUs()+b.CapGPUs(), totGPUs)
	}
}
