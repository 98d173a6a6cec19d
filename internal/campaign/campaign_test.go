package campaign

import (
	"fmt"
	"strings"
	"testing"

	"impress/internal/core"
	"impress/internal/workload"
)

// fastCampaigns builds a small sweep (2 campaigns per seed) with shrunken
// protocol parameters for test speed.
func fastCampaigns(t *testing.T, seeds int) []Campaign {
	t.Helper()
	var all []Campaign
	for i := 0; i < seeds; i++ {
		seed := uint64(100 + i)
		var targets []*workload.Target
		for j := 0; j < 3; j++ {
			tg, err := workload.NewTarget(seed, fmt.Sprintf("T%c", 'A'+j), 48+2*j,
				workload.AlphaSynucleinTail4, workload.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			targets = append(targets, tg)
		}
		shrink := func(cfg core.Config) core.Config {
			cfg.Pipeline.Cycles = 2
			cfg.Pipeline.MPNN.NumSequences = 6
			cfg.Pipeline.MPNN.Sweeps = 2
			return cfg
		}
		all = append(all,
			Campaign{Name: fmt.Sprintf("contv/seed%d", seed), Seed: seed, Targets: targets,
				Config: shrink(core.ControlConfig(seed))},
			Campaign{Name: fmt.Sprintf("imrp/seed%d", seed), Seed: seed, Targets: targets,
				Config: shrink(core.AdaptiveConfig(seed))},
		)
	}
	return all
}

// assertIdenticalOutcomes compares two outcome sets bit-for-bit on every
// scientific and timeline quantity a Result carries.
func assertIdenticalOutcomes(t *testing.T, a, b []Outcome) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("outcome counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		ra, rb := a[i].Result, b[i].Result
		if (a[i].Err == nil) != (b[i].Err == nil) {
			t.Fatalf("outcome %d error mismatch: %v vs %v", i, a[i].Err, b[i].Err)
		}
		if ra == nil {
			continue
		}
		if ra.Approach != rb.Approach || ra.TrajectoryCount() != rb.TrajectoryCount() ||
			ra.SubPipelines != rb.SubPipelines || ra.TaskCount != rb.TaskCount {
			t.Fatalf("outcome %d (%s) shape diverged", i, a[i].Name)
		}
		for j := range ra.Trajectories {
			if ra.Trajectories[j].Metrics != rb.Trajectories[j].Metrics ||
				ra.Trajectories[j].PipelineID != rb.Trajectories[j].PipelineID {
				t.Fatalf("outcome %d trajectory %d diverged", i, j)
			}
		}
		if ra.Makespan != rb.Makespan || ra.CPUUtilization != rb.CPUUtilization ||
			ra.GPUUtilization != rb.GPUUtilization || ra.AggregateTaskTime != rb.AggregateTaskTime {
			t.Fatalf("outcome %d timeline diverged", i)
		}
		if ra.NetDelta(core.PLDDTOf) != rb.NetDelta(core.PLDDTOf) {
			t.Fatalf("outcome %d net delta diverged", i)
		}
	}
}

// TestParallelMatchesSequential is the engine's core guarantee: a sweep
// run on many workers is bit-identical to the same sweep run on one.
func TestParallelMatchesSequential(t *testing.T) {
	campaigns := fastCampaigns(t, 3)
	seq := NewEngine(1).Run(campaigns)
	par := NewEngine(4).Run(campaigns)
	for _, o := range seq {
		if o.Err != nil {
			t.Fatal(o.Err)
		}
	}
	assertIdenticalOutcomes(t, seq, par)
}

// TestConcurrentSweepRace is the -race canary: many campaigns sharing
// target models run concurrently. Any mutation of shared landscape state
// trips the detector.
func TestConcurrentSweepRace(t *testing.T) {
	campaigns := fastCampaigns(t, 4)
	outs := NewEngine(8).Run(campaigns)
	for _, o := range outs {
		if o.Err != nil {
			t.Fatal(o.Err)
		}
		if o.Result.TrajectoryCount() == 0 {
			t.Fatalf("campaign %s produced no trajectories", o.Name)
		}
	}
}

// TestOutcomeOrderAndNames: outcomes arrive in input order regardless of
// completion order.
func TestOutcomeOrderAndNames(t *testing.T) {
	campaigns := fastCampaigns(t, 2)
	outs := NewEngine(4).Run(campaigns)
	for i, o := range outs {
		if o.Name != campaigns[i].Name || o.Seed != campaigns[i].Seed {
			t.Fatalf("outcome %d is %s/%d, want %s/%d", i, o.Name, o.Seed, campaigns[i].Name, campaigns[i].Seed)
		}
	}
}

// TestPartialFailure: one broken campaign reports its error without
// discarding the rest of the batch.
func TestPartialFailure(t *testing.T) {
	campaigns := fastCampaigns(t, 2)
	bad := campaigns[1]
	bad.Name = "broken"
	bad.Config.Pipeline.Cycles = 0
	campaigns = append(campaigns[:2:2], bad, campaigns[2], campaigns[3])
	outs := NewEngine(3).Run(campaigns)
	if outs[2].Err == nil || outs[2].Result != nil {
		t.Fatal("broken campaign did not fail")
	}
	for _, i := range []int{0, 1, 3, 4} {
		if outs[i].Err != nil {
			t.Fatalf("healthy campaign %d failed: %v", i, outs[i].Err)
		}
	}
}

// TestEngineEvents: every engine campaign carries its event log on the
// Result, ending with the campaign-done marker.
func TestEngineEvents(t *testing.T) {
	outs := NewEngine(2).Run(fastCampaigns(t, 1))
	for _, o := range outs {
		if o.Err != nil {
			t.Fatal(o.Err)
		}
		events := o.Result.Events
		if len(events) == 0 {
			t.Fatalf("campaign %s logged no events", o.Name)
		}
		last := events[len(events)-1]
		if !strings.Contains(last.String(), "campaign-done") {
			t.Fatalf("campaign %s: last event = %s", o.Name, last)
		}
	}
}

// TestScenarioRegistry: builtins resolve, unknown names fail, duplicates
// are rejected, and the pair scenario builds a runnable pair.
func TestScenarioRegistry(t *testing.T) {
	names := Names()
	for _, want := range []string{"pair", "screen", "stress", "sweep"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("builtin scenario %q missing from %v", want, names)
		}
	}
	if _, err := Build("no-such-scenario", Params{}); err == nil {
		t.Fatal("unknown scenario built")
	}
	if err := Register(Scenario{Name: "pair", Build: func(Params) ([]Campaign, error) { return nil, nil }}); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	if err := Register(Scenario{}); err == nil {
		t.Fatal("empty scenario accepted")
	}

	pair, err := Build("pair", Params{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(pair) != 2 || pair[0].Config.Pipeline.Adaptive || !pair[1].Config.Pipeline.Adaptive {
		t.Fatalf("pair scenario shape wrong: %+v", pair)
	}
	if pair[0].Seed != 7 || pair[0].Config.Seed != 7 {
		t.Fatal("pair scenario ignored the seed")
	}

	sweep, err := Build("sweep", Params{Seed: 5, Seeds: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep) != 6 {
		t.Fatalf("sweep built %d campaigns, want 6", len(sweep))
	}
	if sweep[4].Seed != 7 {
		t.Fatalf("sweep seed progression wrong: %d", sweep[4].Seed)
	}
}

// TestScenarioSplitPilots: SplitPilots propagates the heterogeneous
// pilot pair into every campaign config.
func TestScenarioSplitPilots(t *testing.T) {
	pair, err := Build("pair", Params{Seed: 7, SplitPilots: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range pair {
		if len(c.Config.Pilots) != 2 {
			t.Fatalf("campaign %s has %d pilots, want 2", c.Name, len(c.Config.Pilots))
		}
	}
}
