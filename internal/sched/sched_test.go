package sched

import (
	"reflect"
	"testing"

	"impress/internal/cluster"
)

func req(cores, gpus, mem int) cluster.Request {
	return cluster.Request{Cores: cores, GPUs: gpus, MemGB: mem}
}

func queueOf(reqs ...cluster.Request) []Task {
	q := make([]Task, len(reqs))
	for i, r := range reqs {
		q[i] = Task{UID: uint64(i + 1), Req: r}
	}
	return q
}

// nodes is the scan form of the ledger: each node's free counters in
// node order, visited linearly. It is the reference the indexed cluster
// ledger is checked against, and the fixture the unit tests rank on.
type nodes []cluster.Request

func (ns nodes) VisitFitting(r cluster.Request, f func(id int, free cluster.Request) bool) {
	for id, n := range ns {
		if n.Cores >= r.Cores && n.GPUs >= r.GPUs && n.MemGB >= r.MemGB && !f(id, n) {
			return
		}
	}
}

func orderOf(t *testing.T, name string, q []Task, free Ledger) []int {
	t.Helper()
	p, err := New(name)
	if err != nil {
		t.Fatal(err)
	}
	return p.Order(q, free)
}

func TestRegistry(t *testing.T) {
	want := []string{"backfill", "bestfit", "fifo", "largest", "worstfit"}
	if got := Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for _, n := range Names() {
		p, err := New(n)
		if err != nil {
			t.Fatalf("New(%q): %v", n, err)
		}
		if p.Name() != n {
			t.Errorf("policy %q reports name %q", n, p.Name())
		}
	}
	if _, err := New("priority"); err == nil {
		t.Error("unknown policy accepted")
	}
	if _, err := New(""); err == nil {
		t.Error("empty policy name accepted by New")
	}
	if err := Validate(""); err != nil {
		t.Errorf("empty name should validate: %v", err)
	}
	if err := Validate("bogus"); err == nil {
		t.Error("bogus name validated")
	}
	if Default(true) != "backfill" || Default(false) != "fifo" {
		t.Error("Default mapping wrong")
	}
}

func TestFIFOAndBackfillAreSubmissionOrder(t *testing.T) {
	q := queueOf(req(8, 0, 16), req(1, 1, 4), req(28, 4, 128))
	free := nodes{req(28, 4, 128)}
	for _, name := range []string{"fifo", "backfill"} {
		if got := orderOf(t, name, q, free); !reflect.DeepEqual(got, []int{0, 1, 2}) {
			t.Errorf("%s order = %v, want identity", name, got)
		}
	}
	fifo, _ := New("fifo")
	bf, _ := New("backfill")
	if fifo.ContinueOnBlock() {
		t.Error("fifo must stop at a blocked task")
	}
	if !bf.ContinueOnBlock() {
		t.Error("backfill must continue past a blocked task")
	}
}

func TestBestFitPicksTightest(t *testing.T) {
	// One node with 8 cores free: the 8-core request is the perfect fit,
	// the 1-core one the loosest, the 28-core one fits nowhere.
	q := queueOf(req(1, 0, 4), req(28, 0, 64), req(8, 0, 8))
	free := nodes{req(8, 0, 16)}
	if got := orderOf(t, "bestfit", q, free); !reflect.DeepEqual(got, []int{2, 0, 1}) {
		t.Fatalf("bestfit order = %v, want [2 0 1]", got)
	}
	if got := orderOf(t, "worstfit", q, free); !reflect.DeepEqual(got, []int{0, 2, 1}) {
		t.Fatalf("worstfit order = %v, want [0 2 1]", got)
	}
}

func TestBestFitUsesPerNodeFit(t *testing.T) {
	// Two nodes: 4 and 10 cores free. A 4-core request fits node A
	// exactly (slack 0); a 9-core request only fits node B (slack 4+mem).
	q := queueOf(req(9, 0, 1), req(4, 0, 1))
	free := nodes{req(4, 0, 16), req(10, 0, 16)}
	if got := orderOf(t, "bestfit", q, free); !reflect.DeepEqual(got, []int{1, 0}) {
		t.Fatalf("bestfit order = %v, want [1 0]", got)
	}
}

func TestLargestFirstRanksByWeightedDemand(t *testing.T) {
	// One GPU outweighs several cores (28:4 node shape), so a 1-GPU task
	// beats a 6-core task; the 20-core task beats both.
	q := queueOf(req(6, 0, 1), req(2, 1, 1), req(20, 0, 1))
	free := nodes{req(28, 4, 128)}
	if got := orderOf(t, "largest", q, free); !reflect.DeepEqual(got, []int{2, 1, 0}) {
		t.Fatalf("largest order = %v, want [2 1 0]", got)
	}
}

func TestTiesBreakBySubmissionOrder(t *testing.T) {
	q := queueOf(req(4, 0, 8), req(4, 0, 8), req(4, 0, 8))
	free := nodes{req(28, 4, 128)}
	for _, name := range Names() {
		if got := orderOf(t, name, q, free); !reflect.DeepEqual(got, []int{0, 1, 2}) {
			t.Errorf("%s breaks ties away from submission order: %v", name, got)
		}
	}
}

func TestOrderIsAPermutation(t *testing.T) {
	// Randomized-ish shapes; every policy must return each index exactly
	// once regardless of fit.
	q := queueOf(req(1, 0, 1), req(30, 4, 200), req(8, 2, 32), req(28, 0, 128), req(2, 1, 8))
	free := nodes{req(12, 1, 32), req(8, 1, 32)}
	for _, name := range Names() {
		got := orderOf(t, name, q, free)
		if len(got) != len(q) {
			t.Fatalf("%s returned %d indices for %d tasks", name, len(got), len(q))
		}
		seen := make(map[int]bool)
		for _, idx := range got {
			if idx < 0 || idx >= len(q) || seen[idx] {
				t.Fatalf("%s order %v is not a permutation", name, got)
			}
			seen[idx] = true
		}
	}
}

func TestOrderDeterministic(t *testing.T) {
	q := queueOf(req(3, 1, 8), req(3, 1, 8), req(12, 0, 16), req(1, 0, 2))
	free := nodes{req(16, 2, 64)}
	for _, name := range Names() {
		a := orderOf(t, name, q, free)
		b := orderOf(t, name, q, free)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s order not deterministic: %v vs %v", name, a, b)
		}
	}
}
