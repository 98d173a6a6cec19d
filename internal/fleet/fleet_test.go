package fleet

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"impress/internal/cluster"
)

func TestParseSpec(t *testing.T) {
	ts, err := ParseSpec("cpu:28c0g128m*900+gpu:8c4g32m*100")
	if err != nil {
		t.Fatal(err)
	}
	want := []Template{
		{Name: "cpu", Cap: cluster.NodeCapacity{Cores: 28, GPUs: 0, MemGB: 128}, Count: 900},
		{Name: "gpu", Cap: cluster.NodeCapacity{Cores: 8, GPUs: 4, MemGB: 32}, Count: 100},
	}
	if !reflect.DeepEqual(ts, want) {
		t.Fatalf("parsed %+v, want %+v", ts, want)
	}
	// Whitespace around segments is tolerated (shell-quoted flag values).
	if _, err := ParseSpec(" cpu:4c0g8m*2 + gpu:2c1g4m*1 "); err != nil {
		t.Fatalf("whitespace spec rejected: %v", err)
	}
}

// TestParseSpecErrorsNameSegment: every malformed spec must be rejected
// with an error that quotes the offending segment — the flag-level
// debuggability contract.
func TestParseSpecErrorsNameSegment(t *testing.T) {
	cases := []struct {
		spec string
		seg  string // the segment the error must quote
	}{
		{"", ""},
		{"28c0g128m*900", "28c0g128m*900"},                                     // no name
		{"cpu:28c0g128m", "cpu:28c0g128m"},                                     // no count
		{"cpu:28c128m*900", "cpu:28c128m*900"},                                 // missing g field
		{"cpu:28c0g128m*bogus", "cpu:28c0g128m*bogus"},                         // bad count
		{"cpu:28c0g128m*0", "cpu:28c0g128m*0"},                                 // zero count
		{"cpu:28c0g128mXX*9", "cpu:28c0g128mXX*9"},                             // trailing junk
		{"cpu:0c0g128m*9", "cpu:0c0g128m*9"},                                   // degenerate shape
		{"cpu:4c0g8m*2+cpu:8c0g16m*2", "cpu:8c0g16m*2"},                        // duplicate name
		{"cpu:4c0g8m*2+gpu:2c1g4m*bad+big:8c0g64m*1", "gpu:2c1g4m*bad"},        // middle segment
		{"a:28c4g128m*9223372036854775807", "a:28c4g128m*9223372036854775807"}, // count past MaxNodes
		{"a:1c0g1m*1048576+b:1c0g1m*1", "b:1c0g1m*1"},                          // total past MaxNodes
	}
	for _, tc := range cases {
		_, err := ParseSpec(tc.spec)
		if err == nil {
			t.Errorf("ParseSpec(%q) accepted", tc.spec)
			continue
		}
		if tc.seg != "" && !strings.Contains(err.Error(), `"`+tc.seg+`"`) {
			t.Errorf("ParseSpec(%q) error %q does not name segment %q", tc.spec, err, tc.seg)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	ts, err := ParseSpec("cpu:28c0g128m*90+gpu:8c4g32m*10")
	if err != nil {
		t.Fatal(err)
	}
	a, err := Generate(42, ts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(42, ts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different fleets")
	}
	c, err := Generate(43, ts)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical node orders")
	}
	// Different order, same multiset: counts per shape must match the
	// templates regardless of seed.
	count := func(caps []cluster.NodeCapacity, nc cluster.NodeCapacity) int {
		n := 0
		for _, c := range caps {
			if c == nc {
				n++
			}
		}
		return n
	}
	for _, fleetCaps := range [][]cluster.NodeCapacity{a, c} {
		if len(fleetCaps) != 100 {
			t.Fatalf("fleet size %d, want 100", len(fleetCaps))
		}
		if n := count(fleetCaps, ts[0].Cap); n != 90 {
			t.Fatalf("cpu nodes %d, want 90", n)
		}
		if n := count(fleetCaps, ts[1].Cap); n != 10 {
			t.Fatalf("gpu nodes %d, want 10", n)
		}
	}
	// Shapes actually interleave: the first 90 slots are not all CPU.
	if count(a[:90], ts[0].Cap) == 90 {
		t.Fatal("fleet not shuffled — templates still contiguous")
	}
}

func TestGenerateRejectsUnresolvedWeight(t *testing.T) {
	_, err := Generate(1, []Template{{Name: "w", Cap: cluster.NodeCapacity{Cores: 4}, Weight: 1}})
	if err == nil || !strings.Contains(err.Error(), "Distribute") {
		t.Fatalf("unresolved weight accepted: %v", err)
	}
	if _, err := Generate(1, nil); err == nil {
		t.Fatal("empty template list accepted")
	}
}

func TestDistribute(t *testing.T) {
	ts := []Template{
		{Name: "cpu", Cap: cluster.NodeCapacity{Cores: 28, MemGB: 128}, Weight: 3},
		{Name: "gpu", Cap: cluster.NodeCapacity{Cores: 8, GPUs: 4, MemGB: 32}, Weight: 1},
		{Name: "big", Cap: cluster.NodeCapacity{Cores: 64, MemGB: 512}, Count: 2},
	}
	out, err := Distribute(ts, 102)
	if err != nil {
		t.Fatal(err)
	}
	// 100 weighted nodes split 3:1 → 75/25; explicit count untouched.
	if out[0].Count != 75 || out[1].Count != 25 || out[2].Count != 2 {
		t.Fatalf("counts %d/%d/%d, want 75/25/2", out[0].Count, out[1].Count, out[2].Count)
	}
	// Largest-remainder: 10 nodes at weights 1:1:1 → 4/3/3 by order.
	three := []Template{
		{Name: "a", Cap: cluster.NodeCapacity{Cores: 1}, Weight: 1},
		{Name: "b", Cap: cluster.NodeCapacity{Cores: 2}, Weight: 1},
		{Name: "c", Cap: cluster.NodeCapacity{Cores: 3}, Weight: 1},
	}
	out, err = Distribute(three, 10)
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Count+out[1].Count+out[2].Count != 10 {
		t.Fatalf("apportionment does not sum: %+v", out)
	}
	for _, o := range out {
		if o.Count < 3 || o.Count > 4 {
			t.Fatalf("equal weights apportioned unevenly: %+v", out)
		}
	}
	// Error paths: over-committed counts, leftovers with no weights, a
	// weight starved to zero.
	if _, err := Distribute([]Template{{Name: "x", Cap: cluster.NodeCapacity{Cores: 1}, Count: 5}}, 3); err == nil {
		t.Fatal("explicit counts exceeding the total accepted")
	}
	if _, err := Distribute([]Template{{Name: "x", Cap: cluster.NodeCapacity{Cores: 1}, Count: 2}}, 3); err == nil {
		t.Fatal("leftover nodes with no weighted template accepted")
	}
	starved := []Template{
		{Name: "x", Cap: cluster.NodeCapacity{Cores: 1}, Weight: 1000},
		{Name: "y", Cap: cluster.NodeCapacity{Cores: 1}, Weight: 0.0001},
	}
	if _, err := Distribute(starved, 2); err == nil {
		t.Fatal("template starved to zero nodes accepted")
	}
}

func TestSpecFor(t *testing.T) {
	caps := []cluster.NodeCapacity{
		{Cores: 28, GPUs: 0, MemGB: 128},
		{Cores: 8, GPUs: 4, MemGB: 32},
	}
	s := SpecFor("fleet", caps)
	if s.Name != "fleet" || s.Nodes != 2 || s.CoresPerNode != 28 || s.GPUsPerNode != 4 || s.MemGBPerNode != 128 {
		t.Fatalf("envelope spec %+v", s)
	}
	// The envelope must actually admit the fleet in cluster construction.
	if _, err := cluster.NewWithNodes(s, caps); err != nil {
		t.Fatal(err)
	}
}

// TestParseSpecDomains: the optional @domain suffix labels a segment's
// failure domain, and Generate stamps the label on every expanded node.
func TestParseSpecDomains(t *testing.T) {
	ts, err := ParseSpec("cpu:8c0g32m*3@rackA+gpu:8c4g32m*2@rackB+misc:4c0g16m*1")
	if err != nil {
		t.Fatal(err)
	}
	wantDomains := []string{"rackA", "rackB", ""}
	for i, want := range wantDomains {
		if ts[i].Domain != want {
			t.Fatalf("segment %d domain %q, want %q", i, ts[i].Domain, want)
		}
	}
	caps, err := Generate(11, ts)
	if err != nil {
		t.Fatal(err)
	}
	byDomain := make(map[string]int)
	for _, nc := range caps {
		byDomain[nc.Domain]++
	}
	if byDomain["rackA"] != 3 || byDomain["rackB"] != 2 || byDomain[""] != 1 {
		t.Fatalf("generated domain counts %v, want rackA:3 rackB:2 unlabeled:1", byDomain)
	}
	for _, bad := range []struct{ spec, seg string }{
		{"cpu:8c0g32m*3@", "cpu:8c0g32m*3@"},           // empty domain
		{"cpu:8c0g32m*x@rackA", "cpu:8c0g32m*x@rackA"}, // bad count with domain
	} {
		_, err := ParseSpec(bad.spec)
		if err == nil {
			t.Fatalf("ParseSpec(%q) accepted", bad.spec)
		}
		if !strings.Contains(err.Error(), `"`+bad.seg+`"`) {
			t.Fatalf("ParseSpec(%q) error %q does not name segment %q", bad.spec, err, bad.seg)
		}
	}
}

// TestNodeCeiling: counts up to MaxNodes parse, one past it does not, and
// Generate refuses templates built in code whose total passes the ceiling
// instead of overflowing its capacity arithmetic.
func TestNodeCeiling(t *testing.T) {
	if _, err := ParseSpec(fmt.Sprintf("a:1c0g1m*%d", MaxNodes)); err != nil {
		t.Fatalf("a count of exactly MaxNodes rejected: %v", err)
	}
	if _, err := ParseSpec(fmt.Sprintf("a:1c0g1m*%d", MaxNodes+1)); err == nil {
		t.Fatal("a count past MaxNodes accepted")
	}
	big := []Template{
		{Name: "a", Cap: cluster.NodeCapacity{Cores: 1}, Count: 1 << 62},
		{Name: "b", Cap: cluster.NodeCapacity{Cores: 1}, Count: 1 << 62},
	}
	if _, err := Generate(1, big); err == nil || !strings.Contains(err.Error(), `"a"`) {
		t.Fatalf("Generate over the ceiling: %v", err)
	}
}

// FuzzParseSpec: no input panics the parser, and every spec it accepts
// expands through Generate to exactly the sum of its counts. The seed
// corpus (testdata/fuzz/FuzzParseSpec) holds the overflowing counts that
// once panicked or exhausted memory in Generate.
func FuzzParseSpec(f *testing.F) {
	for _, s := range []string{
		"cpu:28c0g128m*900+gpu:8c4g32m*100",
		"cpu:8c0g32m*3@rackA+gpu:8c4g32m*2@rackB+misc:4c0g16m*1",
		" cpu:4c0g8m*2 + gpu:2c1g4m*1 ",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		ts, err := ParseSpec(spec)
		if err != nil {
			return
		}
		want := 0
		for _, tp := range ts {
			want += tp.Count
		}
		caps, err := Generate(7, ts)
		if err != nil {
			t.Fatalf("ParseSpec(%q) accepted a spec Generate rejects: %v", spec, err)
		}
		if len(caps) != want {
			t.Fatalf("ParseSpec(%q): Generate returned %d nodes, counts sum to %d", spec, len(caps), want)
		}
	})
}
