// Package fleet generates seed-deterministic heterogeneous node fleets
// from node templates — the Navarch-style synthetic-cluster generator
// the kilo-node scenarios run on. A fleet is described as a list of
// templates (name, node shape, count, optional failure-domain label);
// Generate expands the templates and shuffles the node order
// deterministically from a seed, so the same (spec, seed) pair yields the
// same fleet on every run and every platform — the property the
// kilo-screen byte-identical trace test pins.
package fleet

import (
	"fmt"
	"strconv"
	"strings"

	"impress/internal/cluster"
	"impress/internal/xrand"
)

// MaxNodes is the largest fleet ParseSpec accepts and Generate expands,
// per segment and in total. It sits three orders of magnitude above the
// kilo-node scenarios and keeps a mistyped count from overflowing the
// node total or exhausting memory.
const MaxNodes = 1 << 20

// MaxPerNode is the largest per-node core, GPU or memory (GB) count a
// template may carry. With at most MaxNodes nodes, every fleet total
// stays within 2^40: exact in an int and in the float64 arithmetic of
// utilization and campaign metrics, where an uncapped shape overflowed
// the pilot's capacity sums.
const MaxPerNode = 1 << 20

// Template is one node shape of a fleet description.
type Template struct {
	// Name labels the template ("cpu", "gpu", "bigmem", …).
	Name string
	// Cap is the node shape every expansion of this template gets.
	Cap cluster.NodeCapacity
	// Count is the number of nodes the template expands to.
	Count int
	// Domain is the template's failure-domain label. Generate stamps it
	// on every node the template expands to; the fault layer groups
	// correlated failures (domain outages, cascades, maintenance) by it.
	// Empty means unlabeled.
	Domain string
}

// Validate rejects templates that can produce no legal fleet.
func (t Template) Validate() error {
	if t.Name == "" {
		return fmt.Errorf("fleet: template with empty name")
	}
	nc := t.Cap
	if nc.Cores < 0 || nc.GPUs < 0 || nc.MemGB < 0 || (nc.Cores == 0 && nc.GPUs == 0) {
		return fmt.Errorf("fleet: template %q has degenerate node shape %+v", t.Name, nc)
	}
	if err := shapeCeiling(t.Name, int64(nc.Cores), int64(nc.GPUs), int64(nc.MemGB)); err != nil {
		return err
	}
	if t.Count <= 0 {
		return fmt.Errorf("fleet: template %q has non-positive count %d", t.Name, t.Count)
	}
	return nil
}

// shapeCeiling rejects a node shape with a core, GPU or memory count past
// MaxPerNode. It takes 64-bit counts, so that the parser can apply it
// before narrowing them to int.
func shapeCeiling(name string, cores, gpus, memGB int64) error {
	if cores > MaxPerNode || gpus > MaxPerNode || memGB > MaxPerNode {
		return fmt.Errorf("fleet: template %q node shape %dc%dg%dm exceeds the per-node ceiling of %d cores, GPUs and GB",
			name, cores, gpus, memGB, MaxPerNode)
	}
	return nil
}

// Generate expands the templates into a fleet of node capacities and
// shuffles the node order deterministically from seed, so heterogeneous
// shapes interleave the way a real, organically grown partition does
// instead of clustering by template.
func Generate(seed uint64, ts []Template) ([]cluster.NodeCapacity, error) {
	if len(ts) == 0 {
		return nil, fmt.Errorf("fleet: no templates")
	}
	total := 0
	for _, t := range ts {
		if err := t.Validate(); err != nil {
			return nil, err
		}
		if t.Count > MaxNodes-total {
			return nil, fmt.Errorf("fleet: templates through %q expand to more than %d nodes", t.Name, MaxNodes)
		}
		total += t.Count
	}
	caps := make([]cluster.NodeCapacity, 0, total)
	for _, t := range ts {
		nc := t.Cap
		nc.Domain = t.Domain
		for i := 0; i < t.Count; i++ {
			caps = append(caps, nc)
		}
	}
	rng := xrand.New(xrand.Derive(seed, "fleet"))
	rng.Shuffle(len(caps), func(i, j int) { caps[i], caps[j] = caps[j], caps[i] })
	return caps, nil
}

// ParseSpec parses a fleet description of the form
//
//	cpu:28c0g128m*900+gpu:8c4g32m*100@rackB
//
// — '+'-separated segments, each name:<cores>c<gpus>g<mem>m*<count>
// with an optional @<domain> failure-domain label. Counts, and their
// total, may not exceed MaxNodes; cores, GPUs and memory may not exceed
// MaxPerNode. Errors name the offending segment so a long flag value
// stays debuggable.
func ParseSpec(s string) ([]Template, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("fleet: empty fleet spec")
	}
	segs := strings.Split(s, "+")
	ts := make([]Template, 0, len(segs))
	seen := make(map[string]bool, len(segs))
	total := 0
	for _, raw := range segs {
		seg := strings.TrimSpace(raw)
		t, err := parseSegment(seg)
		if err != nil {
			return nil, err
		}
		if seen[t.Name] {
			return nil, fmt.Errorf("fleet: bad segment %q: duplicate template name %q", seg, t.Name)
		}
		seen[t.Name] = true
		// parseSegment caps each count at MaxNodes, so the sum cannot
		// overflow before this check.
		if total += t.Count; total > MaxNodes {
			return nil, fmt.Errorf("fleet: bad segment %q: fleet total %d exceeds the %d-node ceiling", seg, total, MaxNodes)
		}
		ts = append(ts, t)
	}
	return ts, nil
}

func parseSegment(seg string) (Template, error) {
	bad := func(msg string) (Template, error) {
		return Template{}, fmt.Errorf("fleet: bad segment %q: %s (want name:<cores>c<gpus>g<mem>m*<count>[@domain])", seg, msg)
	}
	name, rest, ok := strings.Cut(seg, ":")
	if !ok || name == "" {
		return bad("missing template name")
	}
	shape, countStr, ok := strings.Cut(rest, "*")
	if !ok {
		return bad("missing *<count>")
	}
	// Counts and shapes are parsed in 64 bits and checked against their
	// ceilings before they narrow to int, so that a 32-bit build names
	// the ceiling a value breaks as a 64-bit one does.
	var cores, gpus, memGB int64
	var err error
	if shape, cores, err = eatInt(shape, 'c'); err != nil {
		return bad(err.Error())
	}
	if shape, gpus, err = eatInt(shape, 'g'); err != nil {
		return bad(err.Error())
	}
	if shape, memGB, err = eatInt(shape, 'm'); err != nil {
		return bad(err.Error())
	}
	if shape != "" {
		return bad(fmt.Sprintf("trailing %q after <mem>m", shape))
	}
	countStr, domain, hasDomain := strings.Cut(countStr, "@")
	if hasDomain && domain == "" {
		return bad("empty domain after '@'")
	}
	count, err := strconv.ParseInt(countStr, 10, 64)
	if err != nil || count <= 0 {
		return bad(fmt.Sprintf("bad count %q", countStr))
	}
	if count > MaxNodes {
		return bad(fmt.Sprintf("count %d exceeds the %d-node ceiling", count, MaxNodes))
	}
	if err := shapeCeiling(name, cores, gpus, memGB); err != nil {
		return bad(err.Error())
	}
	nc := cluster.NodeCapacity{Cores: int(cores), GPUs: int(gpus), MemGB: int(memGB)}
	t := Template{Name: name, Cap: nc, Count: int(count), Domain: domain}
	if err := t.Validate(); err != nil {
		return bad(err.Error())
	}
	return t, nil
}

// eatInt consumes a leading non-negative decimal integer terminated by
// unit.
func eatInt(s string, unit byte) (rest string, v int64, err error) {
	i := strings.IndexByte(s, unit)
	if i < 0 {
		return "", 0, fmt.Errorf("missing %q field", string(unit))
	}
	v, err = strconv.ParseInt(s[:i], 10, 64)
	if err != nil || v < 0 {
		return "", 0, fmt.Errorf("bad %q value %q", string(unit), s[:i])
	}
	return s[i+1:], v, nil
}

// SpecFor wraps a generated fleet in a cluster.Spec for NewWithNodes: the
// per-node fields carry the per-dimension maxima across the fleet (the
// nominal envelope reports use), Nodes the fleet size.
func SpecFor(name string, caps []cluster.NodeCapacity) cluster.Spec {
	s := cluster.Spec{Name: name, Nodes: len(caps)}
	for _, nc := range caps {
		s.CoresPerNode = max(s.CoresPerNode, nc.Cores)
		s.GPUsPerNode = max(s.GPUsPerNode, nc.GPUs)
		s.MemGBPerNode = max(s.MemGBPerNode, nc.MemGB)
	}
	return s
}
