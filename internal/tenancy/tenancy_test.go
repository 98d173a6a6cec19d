package tenancy

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"impress/internal/cluster"
	"impress/internal/core"
	"impress/internal/fleet"
)

// testSpec builds an n-tenant service over an Amarel-node pool: each
// tenant is a one-target IM-RP screen demanding demand nodes.
func testSpec(n, poolNodes, demand int, admission, reclaim, arrival string, seed uint64) Spec {
	spec := Spec{
		Config: Config{
			Machine:   cluster.AmarelCluster(poolNodes),
			Seed:      seed,
			Arrival:   arrival,
			Span:      6 * time.Hour,
			Admission: admission,
			Reclaim:   reclaim,
		},
	}
	for i := 0; i < n; i++ {
		spec.Tenants = append(spec.Tenants, TenantSpec{
			Name:        fmt.Sprintf("t%d", i),
			Seed:        seed + uint64(i),
			Weight:      float64(1 + i%3),
			Nodes:       demand,
			TargetCount: 1,
			Config:      core.AdaptiveConfig(seed + uint64(i)),
		})
	}
	return spec
}

// runService runs spec, checking the pool at every admission pass and
// reclaim tick.
func runService(t *testing.T, spec Spec) (*Service, *core.Result) {
	t.Helper()
	s, err := NewService(spec)
	if err != nil {
		t.Fatal(err)
	}
	return s, runChecked(t, s)
}

func TestServiceValidation(t *testing.T) {
	base := testSpec(2, 2, 1, "", "", "", 7)
	for name, breakIt := range map[string]func(*Spec){
		"no tenants":        func(s *Spec) { s.Tenants = nil },
		"bad arrival":       func(s *Spec) { s.Config.Arrival = "poisson" },
		"bad admission":     func(s *Spec) { s.Config.Admission = "slurm" },
		"bad reclaim":       func(s *Spec) { s.Config.Reclaim = "greedy-tenant" },
		"negative period":   func(s *Spec) { s.Config.ReclaimPeriod = -time.Hour },
		"unnamed tenant":    func(s *Spec) { s.Tenants[0].Name = "" },
		"duplicate tenant":  func(s *Spec) { s.Tenants[1].Name = s.Tenants[0].Name },
		"zero demand":       func(s *Spec) { s.Tenants[0].Nodes = 0 },
		"impossible demand": func(s *Spec) { s.Tenants[0].Nodes = 99 },
		"no workload":       func(s *Spec) { s.Tenants[0].TargetCount = 0 },
	} {
		spec := base
		spec.Tenants = append([]TenantSpec(nil), base.Tenants...)
		breakIt(&spec)
		if _, err := NewService(spec); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestServiceSingleTenantInstant(t *testing.T) {
	_, res := runService(t, testSpec(1, 1, 1, "fcfs-admit", "", "instant", 42))
	if len(res.Tenants) != 1 {
		t.Fatalf("got %d tenant stats", len(res.Tenants))
	}
	ts := res.Tenants[0]
	if ts.Wait != 0 {
		t.Fatalf("sole tenant on an empty pool waited %v", ts.Wait)
	}
	if ts.Slowdown != 1 {
		t.Fatalf("sole tenant slowdown = %v, want 1", ts.Slowdown)
	}
	if res.Admission != "fcfs-admit" {
		t.Fatalf("Admission = %q", res.Admission)
	}
	if res.Approach != "TENANTS" {
		t.Fatalf("Approach = %q", res.Approach)
	}
	if res.Makespan != ts.Finished {
		t.Fatalf("service makespan %v != sole tenant finish %v", res.Makespan, ts.Finished)
	}
	if res.TaskCount == 0 || res.TrajectoryCount() == 0 {
		t.Fatal("aggregate lost the tenant's work")
	}
}

// TestServiceDeterminism is the multi-tenant replay proof: the same seed
// must produce a byte-identical service record across repeated runs and
// across worker counts. CI runs this under -race, so it doubles as the
// shared-cluster concurrency check.
func TestServiceDeterminism(t *testing.T) {
	render := func(workers int) []byte {
		spec := testSpec(4, 3, 1, "weighted-fair", "fairshare", "wave", 42)
		spec.Config.Workers = workers
		_, res := runService(t, spec)
		var buf bytes.Buffer
		if err := res.WriteJSON(&buf, true); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	first := render(1)
	for _, workers := range []int{1, 4} {
		if got := render(workers); !bytes.Equal(first, got) {
			t.Fatalf("service record diverged at workers=%d", workers)
		}
	}
}

// TestServiceInvariants is the randomized suite over seeds and policies:
// the pool ledger must audit clean and end fully free, quota grants must
// respect the cap, FCFS must admit in arrival order, and every tenant
// record must be internally consistent.
func TestServiceInvariants(t *testing.T) {
	for _, admission := range Names() {
		for seed := uint64(1); seed <= 3; seed++ {
			spec := testSpec(4, 3, 2, admission, "fairshare", "exponential", seed)
			spec.Config.Quota = 2
			s, res := runService(t, spec)

			if free, total := s.pool.free, len(s.pool.owner); free != total {
				t.Fatalf("%s/seed%d: %d of %d nodes still leased after all tenants finished", admission, seed, total-free, total)
			}
			var prevAdmitted time.Duration
			for i, ts := range res.Tenants {
				if admission == "quota" && ts.Nodes > spec.Config.Quota {
					t.Fatalf("%s/seed%d: tenant %s granted %d nodes over quota %d", admission, seed, ts.Name, ts.Nodes, spec.Config.Quota)
				}
				if ts.Admitted < ts.Arrived || ts.Finished < ts.Admitted {
					t.Fatalf("%s/seed%d: tenant %s timeline inverted: %+v", admission, seed, ts.Name, ts)
				}
				if ts.Wait != ts.Admitted-ts.Arrived || ts.Runtime != ts.Finished-ts.Admitted {
					t.Fatalf("%s/seed%d: tenant %s wait/runtime inconsistent: %+v", admission, seed, ts.Name, ts)
				}
				if ts.Slowdown < 1 {
					t.Fatalf("%s/seed%d: tenant %s slowdown %v < 1", admission, seed, ts.Name, ts.Slowdown)
				}
				if ts.Nodes < 1 {
					t.Fatalf("%s/seed%d: tenant %s admitted with %d nodes", admission, seed, ts.Name, ts.Nodes)
				}
				// Exponential arrivals are strictly staggered here, so
				// FCFS admission can never reorder the queue.
				if admission == "fcfs-admit" && i > 0 && ts.Admitted < prevAdmitted {
					t.Fatalf("%s/seed%d: tenant %s admitted at %v before its predecessor at %v", admission, seed, ts.Name, ts.Admitted, prevAdmitted)
				}
				prevAdmitted = ts.Admitted
			}
			// Per-tenant results exist and carry the per-tenant work that
			// the aggregate sums.
			sumTasks := 0
			for _, r := range s.TenantResults() {
				if r == nil {
					t.Fatalf("%s/seed%d: missing tenant result", admission, seed)
				}
				sumTasks += r.TaskCount
			}
			if sumTasks != res.TaskCount {
				t.Fatalf("%s/seed%d: aggregate TaskCount %d != per-tenant sum %d", admission, seed, res.TaskCount, sumTasks)
			}
		}
	}
}

// TestServiceSharedPoolOversubscribed forces queueing: 4 tenants of 1
// node each on a 2-node pool. Later tenants must wait, and the reclaim
// layer must never let the ledger go inconsistent.
func TestServiceSharedPoolOversubscribed(t *testing.T) {
	_, res := runService(t, testSpec(4, 2, 1, "fcfs-admit", "", "instant", 11))
	waited := 0
	for _, ts := range res.Tenants {
		if ts.Wait > 0 {
			waited++
		}
	}
	if waited == 0 {
		t.Fatal("4 tenants on 2 nodes and nobody waited")
	}
	if res.Makespan <= 0 {
		t.Fatal("no makespan")
	}
}

// TestServiceReclaimToWaitingTenant is the white-box proof of the
// reclaim path: a hog takes the whole pool, a heavier tenant arrives
// later and blocks at the admission gate, and the fairshare reclaim
// layer must drain nodes out of the hog — through the
// checkpoint/evict/resume path when none are idle — back into the free
// pool until the latecomer's weighted-fair grant fits.
func TestServiceReclaimToWaitingTenant(t *testing.T) {
	spec := Spec{
		Config: Config{
			Machine:   cluster.AmarelCluster(6),
			Seed:      42,
			Arrival:   fleet.ArrivalLinear,
			Span:      2 * time.Hour,
			Admission: "weighted-fair",
			Reclaim:   "fairshare",
		},
		Tenants: []TenantSpec{
			{Name: "hog", Seed: 42, Weight: 1, Nodes: 6, TargetCount: 3, Config: core.AdaptiveConfig(42)},
			{Name: "late", Seed: 43, Weight: 3, Nodes: 3, TargetCount: 1, Config: core.AdaptiveConfig(43)},
		},
	}
	_, res := runService(t, spec)
	byName := map[string]core.TenantStat{}
	for _, ts := range res.Tenants {
		byName[ts.Name] = ts
	}
	hog, late := byName["hog"], byName["late"]
	if hog.Reclaimed == 0 {
		t.Fatal("fairshare reclaim never took a node from the hog")
	}
	if late.Wait == 0 {
		t.Fatal("latecomer never waited — the hog did not actually hold the pool")
	}
	if late.Admitted >= hog.Finished {
		t.Fatalf("no overlap: late admitted at %v only after hog finished at %v", late.Admitted, hog.Finished)
	}
	if res.NodeTransfers < hog.Reclaimed {
		t.Fatalf("aggregate NodeTransfers %d lost the %d reclaims", res.NodeTransfers, hog.Reclaimed)
	}
}

// TestServiceFleetPool runs the service over a generated heterogeneous
// fleet instead of a uniform machine.
func TestServiceFleetPool(t *testing.T) {
	caps, err := fleet.Generate(9, []fleet.Template{{Name: "gpu", Count: 3, Cap: cluster.NodeCapacity{Cores: 28, GPUs: 4, MemGB: 128}}})
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec(2, 3, 1, "weighted-fair", "", "linear", 9)
	spec.Config.Machine = fleet.SpecFor("fleet", caps)
	spec.Config.Nodes = caps
	_, res := runService(t, spec)
	if len(res.Tenants) != 2 {
		t.Fatalf("got %d tenant stats", len(res.Tenants))
	}
}

func TestServiceRunTwice(t *testing.T) {
	s, err := NewService(testSpec(1, 1, 1, "", "", "", 5))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err == nil {
		t.Fatal("second Run accepted")
	}
}

// TestServiceThreeTargetTenantWave pins the tenant-wave shape with three
// targets per tenant, which once panicked with "trace: busy cores 32
// outside [0,28]" under weighted-fair admission with fairshare reclaim:
// 24 tenants of three mined targets each arrive in a wave on 12 shared
// nodes, checkpointing every 30 minutes with telemetry on. The run must
// finish clean, with reclaims: every tenant reported, no failed task, the
// pool ledger audited and fully free.
func TestServiceThreeTargetTenantWave(t *testing.T) {
	spec := testSpec(24, 12, 0, "weighted-fair", "fairshare", fleet.ArrivalWave, 42)
	spec.Config.Span = 12 * time.Hour
	spec.Config.Workers = 1
	for i := range spec.Tenants {
		ts := &spec.Tenants[i]
		ts.Nodes = 2 + i%3
		ts.TargetCount = 3
		ts.Config.Pipeline.MPNN.Parallelism = 1
		ts.Config.CheckpointInterval = 30 * time.Minute
		ts.Config.Telemetry = true
	}
	s, res := runService(t, spec)
	if len(res.Tenants) != len(spec.Tenants) {
		t.Fatalf("%d of %d tenants reported", len(res.Tenants), len(spec.Tenants))
	}
	reclaims := 0
	for _, ts := range res.Tenants {
		reclaims += ts.Reclaimed
	}
	if reclaims == 0 {
		t.Fatal("no fairshare reclaim happened; the wave no longer exercises the reclaim path")
	}
	if res.FailedTasks != 0 {
		t.Fatalf("%d failed tasks, want 0", res.FailedTasks)
	}
	if free, total := s.pool.free, len(s.pool.owner); free != total {
		t.Fatalf("%d of %d nodes still leased after all tenants finished", total-free, total)
	}
}
