// Package cluster simulates the heterogeneous HPC resource the paper
// evaluates on: Rutgers Amarel compute nodes with CPU cores, GPUs, and
// memory (Section III: one node, 28 cores, 4× Nvidia Quadro M6000, 128 GB).
//
// The cluster is a pure allocation ledger: the pilot agent asks for
// (cores, gpus, mem) slots, holds them for the lifetime of a task, and
// releases them. Whether held resources are *busy* is tracked separately
// by package trace — that distinction is the whole story of Fig. 4, where
// CONT-V's AlphaFold task holds a GPU for hours while only the CPU-bound
// MSA phase runs.
//
// Every query runs on one indexed ledger (a segment tree, see index.go).
// The linear first-fit scan it must agree with is in the test files: the
// oracle of the randomized differential suite and the baseline of
// BenchmarkAllocScaling.
package cluster

import (
	"fmt"
)

// Spec describes a homogeneous partition of nodes.
type Spec struct {
	Name         string
	Nodes        int
	CoresPerNode int
	GPUsPerNode  int
	MemGBPerNode int
}

// AmarelNode returns the paper's evaluation resource: a single Amarel
// node with 28 cores, 4 GPUs (12 GB each), 128 GB RAM.
func AmarelNode() Spec {
	return Spec{Name: "amarel", Nodes: 1, CoresPerNode: 28, GPUsPerNode: 4, MemGBPerNode: 128}
}

// AmarelCluster returns n Amarel nodes as one partition — the multi-node
// resource the elastic steering scenarios run on (a single node split
// into two single-node partitions leaves nothing transferable).
func AmarelCluster(n int) Spec {
	s := AmarelNode()
	s.Name = fmt.Sprintf("amarel%d", n)
	s.Nodes = n
	return s
}

// SplitCPUGPU carves a spec into two partitions, ParaFold-style: a GPU
// partition holding every GPU plus gpuCores host cores and gpuMemGB
// memory per node, and a CPU partition holding the remainder with no
// GPUs. Running the CPU-bound stages (MSA, ranking, FASTA, metrics) on
// the CPU partition while a dedicated GPU pilot serves inference is the
// multi-pilot placement the IMPRESS middleware targets.
func SplitCPUGPU(s Spec, gpuCores, gpuMemGB int) (cpu, gpu Spec, err error) {
	if err := s.Validate(); err != nil {
		return Spec{}, Spec{}, err
	}
	if s.GPUsPerNode == 0 {
		return Spec{}, Spec{}, fmt.Errorf("cluster: spec %q has no GPUs to split out", s.Name)
	}
	if gpuCores <= 0 || gpuCores >= s.CoresPerNode {
		return Spec{}, Spec{}, fmt.Errorf("cluster: GPU partition cores %d must be in (0, %d)", gpuCores, s.CoresPerNode)
	}
	if gpuMemGB <= 0 || gpuMemGB >= s.MemGBPerNode {
		return Spec{}, Spec{}, fmt.Errorf("cluster: GPU partition memory %d must be in (0, %d)", gpuMemGB, s.MemGBPerNode)
	}
	cpu = Spec{
		Name:         s.Name + "-cpu",
		Nodes:        s.Nodes,
		CoresPerNode: s.CoresPerNode - gpuCores,
		GPUsPerNode:  0,
		MemGBPerNode: s.MemGBPerNode - gpuMemGB,
	}
	gpu = Spec{
		Name:         s.Name + "-gpu",
		Nodes:        s.Nodes,
		CoresPerNode: gpuCores,
		GPUsPerNode:  s.GPUsPerNode,
		MemGBPerNode: gpuMemGB,
	}
	return cpu, gpu, nil
}

// TotalCores returns the aggregate core count.
func (s Spec) TotalCores() int { return s.Nodes * s.CoresPerNode }

// TotalGPUs returns the aggregate GPU count.
func (s Spec) TotalGPUs() int { return s.Nodes * s.GPUsPerNode }

// Validate rejects degenerate specs.
func (s Spec) Validate() error {
	if s.Nodes <= 0 || s.CoresPerNode <= 0 || s.GPUsPerNode < 0 || s.MemGBPerNode <= 0 {
		return fmt.Errorf("cluster: invalid spec %+v", s)
	}
	return nil
}

// NodeCapacity is the resource shape of one node — the unit the elastic
// steering layer moves between pilots. A node transferred from a CPU
// partition to a GPU pilot keeps its own shape, so clusters become
// heterogeneous as soon as a campaign steers.
type NodeCapacity struct {
	Cores int
	GPUs  int
	MemGB int
	// Domain is the node's failure-domain label (rack, zone, power
	// feed); the fault layer's correlated models group nodes by it.
	// Empty means unlabeled. The label travels with the node through
	// elastic transfers, exactly like its resource shape.
	Domain string
}

// Node is one compute node's capacity and free-resource counters.
type Node struct {
	ID        int
	cap       NodeCapacity
	freeCores int
	freeGPUs  int
	freeMemGB int
	// down marks a crashed node (fault injection): its free capacity is
	// withheld from allocation until repair. The free counters keep
	// tracking outstanding allocations so the ledger stays exact across
	// crash/repair cycles.
	down bool
	// removed marks a node transferred out of this cluster by the elastic
	// steering layer. The slot stays behind as a tombstone so node IDs
	// held elsewhere (avoid lists, injector crash chains) stay stable;
	// removed nodes never receive allocations and report zero capacity.
	removed bool
}

// idle reports whether the node is up, still part of the cluster, and
// holds no in-flight allocations — the transferability condition.
func (n *Node) idle() bool {
	return !n.down && !n.removed &&
		n.freeCores == n.cap.Cores && n.freeGPUs == n.cap.GPUs && n.freeMemGB == n.cap.MemGB
}

// Cluster is the allocation ledger for a Spec. It is not safe for
// concurrent use; the pilot agent serializes access through the
// discrete-event engine.
type Cluster struct {
	nodes []*Node
	// freed is the freed-capacity watermark: it advances whenever free
	// capacity can have grown (an allocation released, a node repaired).
	// The pilot agent compares it against the value latched by its last
	// blocked scheduling pass to skip passes that provably place nothing.
	freed uint64

	// homeShapes are the distinct node shapes present at construction —
	// the envelope Fits promises. AddNode deliberately never widens it:
	// capacity borrowed from a differently shaped partition must not
	// change what the pilot accepts (see Fits).
	homeShapes []NodeCapacity

	// idx is the segment-tree allocation index (see index.go).
	idx *ledgerIndex

	// Aggregate ledger counters, maintained incrementally on every
	// mutation path so FreeCores/CapCores/UpNodeCount-style queries
	// answer in O(1). Free totals include down nodes (their ledger stays
	// exact across crash/repair); removed nodes hold zeroed capacity and
	// contribute nothing.
	freeCores, freeGPUs int
	capCores, capGPUs   int
	upNodes             int

	// avoidEpoch/epoch implement O(1) per-node exclusion checks for
	// AllocateExcluding: each call with a non-empty avoid list bumps the
	// epoch and stamps the avoided IDs, so the hot loop compares one
	// uint64 instead of scanning the avoid slice per node.
	avoidEpoch []uint64
	epoch      uint64
}

// New builds a cluster with all resources free.
func New(spec Spec) (*Cluster, error) {
	return newCluster(spec, nil)
}

// NewWithNodes builds a cluster whose nodes take explicit, possibly
// heterogeneous capacities (a generated fleet). spec.Nodes must equal
// len(caps); spec's per-node fields describe the nominal partition for
// reporting, while Fits derives its envelope from the distinct
// capacities actually present.
func NewWithNodes(spec Spec, caps []NodeCapacity) (*Cluster, error) {
	if caps == nil {
		caps = []NodeCapacity{}
	}
	return newCluster(spec, caps)
}

func newCluster(spec Spec, caps []NodeCapacity) (*Cluster, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if caps == nil {
		nc := NodeCapacity{Cores: spec.CoresPerNode, GPUs: spec.GPUsPerNode, MemGB: spec.MemGBPerNode}
		caps = make([]NodeCapacity, spec.Nodes)
		for i := range caps {
			caps[i] = nc
		}
	} else {
		if len(caps) != spec.Nodes {
			return nil, fmt.Errorf("cluster: spec %q declares %d nodes but %d capacities given", spec.Name, spec.Nodes, len(caps))
		}
		for i, nc := range caps {
			if nc.Cores < 0 || nc.GPUs < 0 || nc.MemGB < 0 || (nc.Cores == 0 && nc.GPUs == 0) {
				return nil, fmt.Errorf("cluster: node %d has degenerate capacity %+v", i, nc)
			}
		}
	}
	c := &Cluster{
		nodes:      make([]*Node, 0, len(caps)),
		avoidEpoch: make([]uint64, len(caps)),
	}
	for i, nc := range caps {
		c.nodes = append(c.nodes, &Node{
			ID:        i,
			cap:       nc,
			freeCores: nc.Cores,
			freeGPUs:  nc.GPUs,
			freeMemGB: nc.MemGB,
		})
		c.capCores += nc.Cores
		c.capGPUs += nc.GPUs
		c.freeCores += nc.Cores
		c.freeGPUs += nc.GPUs
		c.addHomeShape(nc)
	}
	c.upNodes = len(caps)
	c.rebuildIndex()
	return c, nil
}

// addHomeShape records a distinct construction-time node shape.
func (c *Cluster) addHomeShape(nc NodeCapacity) {
	for _, s := range c.homeShapes {
		if s == nc {
			return
		}
	}
	c.homeShapes = append(c.homeShapes, nc)
}

// Alloc is a granted reservation on a single node.
type Alloc struct {
	Node     *Node
	Cores    int
	GPUs     int
	MemGB    int
	released bool
}

// Request is an allocation request. Tasks never span nodes (as in RP's
// agent scheduler for non-MPI tasks).
type Request struct {
	Cores int
	GPUs  int
	MemGB int
}

// Covers reports whether r asks for at least as much as o in cores, GPUs
// and memory: every node that can host r right now can host o, so when o
// fits nowhere, neither does r.
func (r Request) Covers(o Request) bool {
	return r.Cores >= o.Cores && r.GPUs >= o.GPUs && r.MemGB >= o.MemGB
}

// Fits reports whether the request could ever be satisfied by an empty
// node of one of the cluster's *home* shapes (the distinct capacities
// present at construction) — used by the scheduler to fail impossible
// tasks instead of wedging the queue. For homogeneous partitions this is
// exactly the nominal-spec check. The check deliberately ignores elastic
// node transfers: a pilot whose nodes are currently loaned out still
// accepts tasks that fit its home shapes (they queue until steering
// brings capacity back), and capacity borrowed from a differently shaped
// partition never widens what the pilot promises.
func (c *Cluster) Fits(r Request) bool {
	if r.Cores < 0 || r.GPUs < 0 || r.MemGB < 0 || (r.Cores == 0 && r.GPUs == 0) {
		return false
	}
	for _, s := range c.homeShapes {
		if hostsCap(s, r) {
			return true
		}
	}
	return false
}

// FitsOutside reports whether some node not named in avoid, up or down
// but not transferred away, has a capacity that could host r once empty
// — whether an attempt excluded from the avoided nodes can ever be
// placed here. Out-of-range IDs in avoid match no node.
func (c *Cluster) FitsOutside(r Request, avoid []int) bool {
	if !c.Fits(r) {
		return false
	}
	c.stampAvoid(avoid)
	// Removed nodes hold zero capacity, so they never match.
	for _, n := range c.nodes {
		if c.avoidEpoch[n.ID] != c.epoch && hostsCap(n.cap, r) {
			return true
		}
	}
	return false
}

// stampAvoid opens a new exclusion epoch and stamps the in-range IDs of
// avoid with it.
func (c *Cluster) stampAvoid(avoid []int) {
	c.epoch++
	for _, id := range avoid {
		if id >= 0 && id < len(c.avoidEpoch) {
			c.avoidEpoch[id] = c.epoch
		}
	}
}

// hostsCap reports whether an empty node of capacity nc can host r.
func hostsCap(nc NodeCapacity, r Request) bool {
	return r.Cores <= nc.Cores && r.GPUs <= nc.GPUs && r.MemGB <= nc.MemGB
}

// Place reserves resources for r on the first node that fits (first-fit
// packing), skipping the nodes named in avoid, and returns the grant by
// value; ok is false when nothing fits right now. Crashed (down) nodes
// never receive allocations. avoid is the mechanism behind the
// "resubmit-elsewhere" recovery policy, which retries a failed task away
// from the node that killed it; a nil or empty list excludes nothing.
// Exclusion is O(1) per node visit: the avoided IDs are stamped into a
// reusable epoch array up front instead of being rescanned for every
// candidate. Allocate and AllocateExcluding are the pointer-returning
// forms of the same placement.
func (c *Cluster) Place(r Request, avoid []int) (a Alloc, ok bool) {
	if !c.Fits(r) {
		return Alloc{}, false
	}
	excluding := len(avoid) > 0
	if excluding {
		c.stampAvoid(avoid)
	}
	id := c.idxFirstFit(1, r, excluding)
	if id < 0 {
		return Alloc{}, false
	}
	return c.take(c.nodes[id], r), true
}

// Allocate is Place without exclusions, returning the grant by pointer or
// nil when nothing fits right now.
func (c *Cluster) Allocate(r Request) *Alloc {
	return c.AllocateExcluding(r, nil)
}

// AllocateExcluding is Place returning the grant by pointer, or nil when
// nothing outside avoid fits right now.
func (c *Cluster) AllocateExcluding(r Request, avoid []int) *Alloc {
	a, ok := c.Place(r, avoid)
	if !ok {
		return nil
	}
	return &a
}

// AllocateOn reserves resources on one specific node, bypassing first-fit
// placement — the primitive behind node-granularity leases, where the
// caller (not the packer) decides which node an allocation pins. It
// returns nil when the node is down, removed, out of range, or cannot
// host the request right now.
func (c *Cluster) AllocateOn(id int, r Request) *Alloc {
	if id < 0 || id >= len(c.nodes) {
		return nil
	}
	if r.Cores < 0 || r.GPUs < 0 || r.MemGB < 0 || (r.Cores == 0 && r.GPUs == 0 && r.MemGB == 0) {
		return nil
	}
	n := c.nodes[id]
	if n.down || n.removed {
		return nil
	}
	if n.freeCores < r.Cores || n.freeGPUs < r.GPUs || n.freeMemGB < r.MemGB {
		return nil
	}
	a := c.take(n, r)
	return &a
}

// take commits a placement decision on node n.
func (c *Cluster) take(n *Node, r Request) Alloc {
	n.freeCores -= r.Cores
	n.freeGPUs -= r.GPUs
	n.freeMemGB -= r.MemGB
	c.freeCores -= r.Cores
	c.freeGPUs -= r.GPUs
	c.updateLeaf(n.ID)
	return Alloc{Node: n, Cores: r.Cores, GPUs: r.GPUs, MemGB: r.MemGB}
}

// VisitFitting calls f for every allocatable node whose free counters can
// host r right now, in ascending node ID order, passing the node's ID and
// free counters. f returning false stops the walk. Only fitting subtrees
// of the index are descended, so scheduling policies rank candidates in
// O(matches · log n) instead of rescanning every node.
func (c *Cluster) VisitFitting(r Request, f func(id int, free Request) bool) {
	c.idxVisitFitting(1, r, f)
}

// Release returns an allocation's resources to its node. Releasing twice
// panics: double-release means the agent's bookkeeping is corrupt and
// utilization numbers would silently overflow.
func (c *Cluster) Release(a *Alloc) {
	if a == nil {
		panic("cluster: releasing nil allocation")
	}
	if a.released {
		panic("cluster: double release")
	}
	a.released = true
	c.freed++
	a.Node.freeCores += a.Cores
	a.Node.freeGPUs += a.GPUs
	a.Node.freeMemGB += a.MemGB
	if a.Node.freeCores > a.Node.cap.Cores || a.Node.freeGPUs > a.Node.cap.GPUs || a.Node.freeMemGB > a.Node.cap.MemGB {
		panic("cluster: release exceeds node capacity")
	}
	c.freeCores += a.Cores
	c.freeGPUs += a.GPUs
	c.updateLeaf(a.Node.ID)
}

// NodeFree returns each node's free counters as requests, in node order.
// Crashed and removed (transferred-away) nodes report zero free capacity,
// so node indices stay aligned with IDs and nothing ranks a placement
// onto hardware that cannot take it.
func (c *Cluster) NodeFree() []Request {
	out := make([]Request, len(c.nodes))
	for i, n := range c.nodes {
		if !n.down && !n.removed {
			out[i] = Request{Cores: n.freeCores, GPUs: n.freeGPUs, MemGB: n.freeMemGB}
		}
	}
	return out
}

// FreedStamp returns the freed-capacity watermark. The stamp is opaque:
// equality with an earlier reading means no free capacity was returned to
// the ledger in between.
func (c *Cluster) FreedStamp() uint64 { return c.freed }

// NodeCount returns the number of nodes in the cluster.
func (c *Cluster) NodeCount() int { return len(c.nodes) }

// SetNodeDown withdraws a node from allocation (node crash). Resources
// already allocated on it stay accounted; the fault injector is
// responsible for failing the resident tasks. Crashing a node that was
// transferred away panics: the hardware belongs to another pilot now.
func (c *Cluster) SetNodeDown(id int) {
	n := c.node(id)
	if n.removed {
		panic(fmt.Sprintf("cluster: node %d crashed after transfer out", id))
	}
	if n.down {
		return
	}
	n.down = true
	c.upNodes--
	c.updateLeaf(id)
}

// SetNodeUp returns a repaired node to allocation.
func (c *Cluster) SetNodeUp(id int) {
	n := c.node(id)
	if n.down {
		n.down = false
		c.upNodes++
		c.updateLeaf(id)
	}
	c.freed++
}

// NodeIsDown reports whether a node is currently withdrawn.
func (c *Cluster) NodeIsDown(id int) bool { return c.node(id).down }

// NodeIsRemoved reports whether a node was transferred out of this
// cluster by the steering layer.
func (c *Cluster) NodeIsRemoved(id int) bool { return c.node(id).removed }

// NodeCap returns a node's capacity shape (the zero value once removed).
func (c *Cluster) NodeCap(id int) NodeCapacity {
	n := c.node(id)
	if n.removed {
		return NodeCapacity{}
	}
	return n.cap
}

// NodeDomain returns a node's failure-domain label ("" for unlabeled or
// removed nodes) — the grouping key of the fault layer's correlated
// failure models.
func (c *Cluster) NodeDomain(id int) string {
	n := c.node(id)
	if n.removed {
		return ""
	}
	return n.cap.Domain
}

// UpNodeCount returns the number of operational nodes: part of the
// cluster and not crashed. This is the floor the steering layer guards —
// donating a pilot's last *up* node would leave it with zero schedulable
// capacity for a whole repair window, even though a down node still
// "belongs" to it.
func (c *Cluster) UpNodeCount() int {
	return c.upNodes
}

// TransferableNodes returns the IDs of nodes eligible for an elastic
// transfer out, ascending: up, still part of the cluster, and holding no
// in-flight allocations.
func (c *Cluster) TransferableNodes() []int {
	total := c.idx.idle[1]
	if total == 0 {
		return nil
	}
	return c.idxAppendIdle(1, make([]int, 0, total))
}

// RemoveNode transfers a node out of the cluster, returning its capacity
// so the receiving cluster can AddNode it. The operation respects down
// nodes and in-flight allocations: a crashed node or one with anything
// allocated on it is refused, so removal never strands an Alloc and
// never needs an unwind. The slot stays behind as an inert tombstone so
// the remaining node IDs are untouched.
func (c *Cluster) RemoveNode(id int) (NodeCapacity, error) {
	n := c.node(id)
	if n.removed {
		return NodeCapacity{}, fmt.Errorf("cluster: node %d already transferred out", id)
	}
	if n.down {
		return NodeCapacity{}, fmt.Errorf("cluster: node %d is down; cannot transfer a crashed node", id)
	}
	if !n.idle() {
		return NodeCapacity{}, fmt.Errorf("cluster: node %d has in-flight allocations", id)
	}
	nc := n.cap
	n.removed = true
	n.cap = NodeCapacity{}
	n.freeCores, n.freeGPUs, n.freeMemGB = 0, 0, 0
	c.capCores -= nc.Cores
	c.capGPUs -= nc.GPUs
	c.freeCores -= nc.Cores
	c.freeGPUs -= nc.GPUs
	c.upNodes--
	c.updateLeaf(id)
	return nc, nil
}

// AddNode extends the cluster with a fully free node of the given
// capacity (an elastic transfer in) and returns its ID. The freed
// watermark advances — new capacity must wake blocked scheduling passes
// exactly as a release or repair does.
func (c *Cluster) AddNode(nc NodeCapacity) int {
	if nc.Cores < 0 || nc.GPUs < 0 || nc.MemGB < 0 || (nc.Cores == 0 && nc.GPUs == 0) {
		panic(fmt.Sprintf("cluster: adding degenerate node %+v", nc))
	}
	n := &Node{
		ID:        len(c.nodes),
		cap:       nc,
		freeCores: nc.Cores,
		freeGPUs:  nc.GPUs,
		freeMemGB: nc.MemGB,
	}
	c.nodes = append(c.nodes, n)
	c.avoidEpoch = append(c.avoidEpoch, 0)
	c.capCores += nc.Cores
	c.capGPUs += nc.GPUs
	c.freeCores += nc.Cores
	c.freeGPUs += nc.GPUs
	c.upNodes++
	c.freed++
	if len(c.nodes) > c.idx.size {
		c.rebuildIndex()
	} else {
		c.updateLeaf(n.ID)
	}
	return n.ID
}

// CapCores returns the cluster's current total core capacity across
// active (non-removed) nodes — Spec().TotalCores() until steering moves
// a node.
func (c *Cluster) CapCores() int {
	return c.capCores
}

// CapGPUs returns the current total GPU capacity across active nodes.
func (c *Cluster) CapGPUs() int {
	return c.capGPUs
}

// DownNodes returns the IDs of currently crashed nodes, ascending.
func (c *Cluster) DownNodes() []int {
	var out []int
	for _, n := range c.nodes {
		if n.down {
			out = append(out, n.ID)
		}
	}
	return out
}

func (c *Cluster) node(id int) *Node {
	if id < 0 || id >= len(c.nodes) {
		panic(fmt.Sprintf("cluster: node %d outside [0,%d)", id, len(c.nodes)))
	}
	return c.nodes[id]
}

// FreeCores returns the total free cores across nodes.
func (c *Cluster) FreeCores() int {
	return c.freeCores
}

// FreeGPUs returns the total free GPUs across nodes.
func (c *Cluster) FreeGPUs() int {
	return c.freeGPUs
}

// AllocatedCores returns currently reserved cores.
func (c *Cluster) AllocatedCores() int { return c.CapCores() - c.FreeCores() }
