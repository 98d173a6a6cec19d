package steer

import (
	"reflect"
	"testing"
)

func TestTenantRegistrySeparateFromPilotRegistry(t *testing.T) {
	// The pilot-level grid (elastic-screen, chaos-sweep) iterates
	// Names(); tenant policies must not leak into it.
	for _, n := range Names() {
		if n == "fairshare" {
			t.Fatal("tenant policy leaked into the pilot-level registry")
		}
	}
	want := []string{"fairshare", "none"}
	if got := TenantNames(); !reflect.DeepEqual(got, want) {
		t.Fatalf("TenantNames() = %v, want %v", got, want)
	}
	if _, err := NewTenant("bogus"); err == nil {
		t.Fatal("unknown tenant policy accepted")
	}
	if err := ValidateTenant(""); err != nil {
		t.Fatal(err)
	}
	if TenantEnabled("none") || TenantEnabled("") {
		t.Fatal("none/empty must not count as enabled")
	}
	if !TenantEnabled("fairshare") {
		t.Fatal("fairshare must count as enabled")
	}
}

func TestTenantNoneNeverMoves(t *testing.T) {
	p, err := NewTenant("none")
	if err != nil {
		t.Fatal(err)
	}
	stats := []TenantStat{
		{Name: "a", Share: 1, Nodes: 5, Queue: 0},
		{Name: "b", Share: 5, Nodes: 1, Queue: 9},
	}
	if moves := p.Decide(stats); len(moves) != 0 {
		t.Fatalf("none proposed %v", moves)
	}
}

func TestTenantFairshareReclaimsFromOverShare(t *testing.T) {
	p, err := NewTenant("fairshare")
	if err != nil {
		t.Fatal(err)
	}
	stats := []TenantStat{
		{Name: "hog", Share: 2, Nodes: 5, Queue: 0},
		{Name: "starved", Share: 4, Nodes: 1, Queue: 7},
		{Name: "balanced", Share: 2, Nodes: 2, Queue: 1},
	}
	moves := p.Decide(stats)
	if len(moves) != 1 || moves[0].From != 0 || moves[0].To != 1 {
		t.Fatalf("fairshare proposed %v, want [{0 1}]", moves)
	}
}

func TestTenantFairshareNeedsDemandAndMargin(t *testing.T) {
	p, _ := NewTenant("fairshare")
	// Receiver has no queue pressure: entitlement alone must not move
	// hardware.
	if moves := p.Decide([]TenantStat{
		{Name: "a", Share: 2, Nodes: 5},
		{Name: "b", Share: 4, Nodes: 1, Queue: 0},
	}); len(moves) != 0 {
		t.Fatalf("moved without demand: %v", moves)
	}
	// Donor would drop below its last node.
	if moves := p.Decide([]TenantStat{
		{Name: "a", Share: 0.2, Nodes: 1},
		{Name: "b", Share: 3, Nodes: 1, Queue: 5},
	}); len(moves) != 0 {
		t.Fatalf("moved a last node: %v", moves)
	}
	// Combined imbalance under one node: moving would ping-pong.
	if moves := p.Decide([]TenantStat{
		{Name: "a", Share: 1.6, Nodes: 2},
		{Name: "b", Share: 2.4, Nodes: 2, Queue: 5},
	}); len(moves) != 0 {
		t.Fatalf("moved inside the hysteresis margin: %v", moves)
	}
}
