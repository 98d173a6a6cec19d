package ga

import (
	"sort"
	"testing"

	"impress/internal/landscape"
	"impress/internal/mpnn"
	"impress/internal/protein"
)

func designs(lls ...float64) []mpnn.Design {
	out := make([]mpnn.Design, len(lls))
	for i, ll := range lls {
		out[i] = mpnn.Design{
			Full:          protein.Sequence("ACDEF"),
			LogLikelihood: ll,
			Index:         i,
		}
	}
	return out
}

func TestTryOrderBestLogLikelihood(t *testing.T) {
	ds := designs(-2.0, -0.5, -1.0, -0.1)
	order := TryOrder(SelectBestLogLikelihood, ds, nil, 0)
	want := []int{3, 1, 2, 0}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestTryOrderBestLogLikelihoodStableOnTies(t *testing.T) {
	ds := designs(-1, -1, -1)
	order := TryOrder(SelectBestLogLikelihood, ds, nil, 0)
	for i, v := range order {
		if v != i {
			t.Fatalf("tie order not stable: %v", order)
		}
	}
}

func TestTryOrderRandomIsSeededPermutation(t *testing.T) {
	ds := designs(1, 2, 3, 4, 5, 6, 7, 8)
	a := TryOrder(SelectRandom, ds, nil, 42)
	b := TryOrder(SelectRandom, ds, nil, 42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("random order not deterministic per seed")
		}
	}
	seen := make([]bool, len(ds))
	for _, v := range a {
		if v < 0 || v >= len(ds) || seen[v] {
			t.Fatalf("not a permutation: %v", a)
		}
		seen[v] = true
	}
	// Different seeds should (for 8 elements) essentially always differ.
	c := TryOrder(SelectRandom, ds, nil, 43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical shuffles")
	}
}

func TestTryOrderOracle(t *testing.T) {
	ds := designs(0, 0, 0)
	scores := []float64{0.2, 0.9, 0.5}
	oracle := func(d mpnn.Design) float64 { return scores[d.Index] }
	order := TryOrder(SelectOracle, ds, oracle, 0)
	want := []int{1, 2, 0}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("oracle order = %v, want %v", order, want)
		}
	}
}

func TestTryOrderOracleWithoutOraclePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	TryOrder(SelectOracle, designs(1), nil, 0)
}

func TestTryOrderUnknownPolicyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	TryOrder(SelectionPolicy(99), designs(1), nil, 0)
}

func TestPolicyNames(t *testing.T) {
	if SelectBestLogLikelihood.String() != "best-loglik" ||
		SelectRandom.String() != "random" ||
		SelectOracle.String() != "oracle" {
		t.Fatal("policy names wrong")
	}
	if SelectionPolicy(9).String() == "" {
		t.Fatal("unknown policy name empty")
	}
}

func TestAccept(t *testing.T) {
	good := landscape.Metrics{PLDDT: 85, PTM: 0.8, IPAE: 8}
	bad := landscape.Metrics{PLDDT: 60, PTM: 0.3, IPAE: 25}
	if !Accept(nil, bad) {
		t.Fatal("first result not accepted")
	}
	if !Accept(&bad, good) {
		t.Fatal("improvement rejected")
	}
	if Accept(&good, bad) {
		t.Fatal("decline accepted")
	}
}

func TestPoolBestAndTargets(t *testing.T) {
	p := NewPool()
	m1 := landscape.Metrics{PLDDT: 70, PTM: 0.5, IPAE: 15}
	m2 := landscape.Metrics{PLDDT: 80, PTM: 0.7, IPAE: 10}
	m3 := landscape.Metrics{PLDDT: 60, PTM: 0.4, IPAE: 20}
	p.Add(Entry{Target: "A", Iteration: 1, Metrics: m1})
	p.Add(Entry{Target: "A", Iteration: 2, Metrics: m2})
	p.Add(Entry{Target: "A", Iteration: 3, Metrics: m3}) // worse; must not displace best
	p.Add(Entry{Target: "B", Iteration: 1, Metrics: m3})
	if len(p.entries) != 4 {
		t.Fatalf("Len = %d", len(p.entries))
	}
	best, ok := p.Best("A")
	if !ok || best != m2 {
		t.Fatalf("Best(A) = %+v", best)
	}
	if _, ok := p.Best("missing"); ok {
		t.Fatal("Best of unknown target reported ok")
	}
	targets := p.Targets()
	if len(targets) != 2 || targets[0] != "A" || targets[1] != "B" {
		t.Fatalf("Targets = %v", targets)
	}
}

func TestIterationMetrics(t *testing.T) {
	p := NewPool()
	m1 := landscape.Metrics{PLDDT: 70}
	m2 := landscape.Metrics{PLDDT: 75}
	p.Add(Entry{Target: "A", Iteration: 1, Metrics: m1})
	p.Add(Entry{Target: "B", Iteration: 1, Metrics: m2})
	p.Add(Entry{Target: "A", Iteration: 2, Metrics: m2})
	it1 := p.IterationMetrics(1)
	if len(it1) != 2 || it1[0] != m1 || it1[1] != m2 {
		t.Fatalf("IterationMetrics(1) = %+v", it1)
	}
	if len(p.IterationMetrics(3)) != 0 {
		t.Fatal("nonexistent iteration returned entries")
	}
	if len(p.Entries()) != 3 {
		t.Fatal("Entries length wrong")
	}
}

// Targets returns the distinct target names seen, sorted.
func (p *Pool) Targets() []string {
	out := make([]string, 0, len(p.best))
	for t := range p.best {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}
