package impress_test

// Checkpointed-preemption regression layer: the preempt-sweep scenario's
// headline claim (evict-and-resume strictly beats kill-and-restart on
// wasted core-hours on every seed, at a median makespan no worse) pinned
// on eight seeds,
// plus a randomized invariant suite over the full grid — whatever the
// seed, attempt chains stay gapless, checkpointed progress is resumed
// exactly once, an eviction loses at most one checkpoint interval, the
// waste ledger stays within its bounds, and the aggregate task time is
// the run phases of the attempts that reached one.

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"impress"
	"impress/internal/stats"
)

// runPreemptSweep builds and runs the preempt-sweep scenario on
// GOMAXPROCS engine workers (campaigns are hermetically seeded, so the
// results do not depend on the worker count), returning results keyed by
// campaign name.
func runPreemptSweep(t *testing.T, p impress.ScenarioParams) map[string]*impress.Result {
	t.Helper()
	campaigns, err := impress.BuildScenario("preempt-sweep", p)
	if err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]*impress.Result, len(campaigns))
	for _, o := range impress.RunCampaigns(campaigns, runtime.GOMAXPROCS(0)) {
		if o.Err != nil {
			t.Fatalf("campaign %s failed: %v", o.Name, o.Err)
		}
		byName[o.Name] = o.Result
	}
	return byName
}

// checkPreemptInvariants walks one campaign's per-attempt task records
// and asserts the properties the preemption subsystem promises
// regardless of seed, cadence, or steering mode.
func checkPreemptInvariants(t *testing.T, name string, res *impress.Result) {
	t.Helper()
	ck := res.CheckpointInterval

	chains := make(map[string][]int) // origin -> record indexes
	recs := res.TaskRecords
	for i, tr := range recs {
		origin := tr.Origin
		if origin == "" {
			origin = tr.ID
		}
		chains[origin] = append(chains[origin], i)
	}

	// "Time (h)": the aggregate is the run phases of exactly the attempts
	// that reached one. No golden pins it for a faulty cell.
	var run time.Duration
	for _, tr := range recs {
		if tr.RunAt > 0 {
			run += tr.Run()
		}
	}
	if res.AggregateTaskTime != run {
		t.Fatalf("%s: AggregateTaskTime %v, but the records that reached their run phase ran %v", name, res.AggregateTaskTime, run)
	}

	resumedRecords, evictedRecords := 0, 0
	for origin, idxs := range chains {
		// Gapless attempt chains: attempts number exactly 1..n with no
		// duplicates, even through evict -> transfer -> resume hops.
		byAttempt := make(map[int]int, len(idxs)) // attempt -> record index
		for _, i := range idxs {
			a := recs[i].Attempt
			if prev, dup := byAttempt[a]; dup {
				t.Fatalf("%s: origin %s has two records for attempt %d (%s and %s)",
					name, origin, a, recs[prev].ID, recs[i].ID)
			}
			byAttempt[a] = i
		}
		var prevEnd *int
		for a := 1; a <= len(idxs); a++ {
			i, ok := byAttempt[a]
			if !ok {
				t.Fatalf("%s: origin %s has %d attempts but none numbered %d", name, origin, len(idxs), a)
			}
			tr := recs[i]
			if tr.Resumed > 0 {
				resumedRecords++
			}
			if tr.Fault == "preempt" {
				evictedRecords++
			}
			if tr.Saved < 0 || tr.Resumed < 0 {
				t.Fatalf("%s: origin %s attempt %d has negative progress (resumed %v, saved %v)",
					name, origin, a, tr.Resumed, tr.Saved)
			}
			// Nothing follows a completed attempt.
			if prevEnd != nil && recs[*prevEnd].State == "DONE" {
				t.Fatalf("%s: origin %s attempt %d follows a DONE attempt", name, origin, a)
			}
			// Resume chain continuity: the first attempt starts cold and
			// every successor inherits exactly what its predecessor
			// banked — checkpointed progress is consumed exactly once,
			// never dropped, never double-counted.
			if a == 1 {
				if tr.Resumed != 0 {
					t.Fatalf("%s: origin %s first attempt resumed from %v, want 0", name, origin, tr.Resumed)
				}
			} else {
				prev := recs[byAttempt[a-1]]
				if want := prev.Resumed + prev.Saved; tr.Resumed != want {
					t.Fatalf("%s: origin %s attempt %d resumed from %v, want predecessor's %v+%v",
						name, origin, a, tr.Resumed, prev.Resumed, prev.Saved)
				}
			}
			// Checkpoint quantization: with checkpointing off nothing is
			// ever banked; with it on, banked progress is whole intervals.
			if ck <= 0 && tr.Saved != 0 {
				t.Fatalf("%s: origin %s attempt %d banked %v with checkpointing off", name, origin, a, tr.Saved)
			}
			if ck > 0 && tr.Saved%ck != 0 {
				t.Fatalf("%s: origin %s attempt %d banked %v, not a multiple of the %v interval",
					name, origin, a, tr.Saved, ck)
			}
			// No progress lost beyond the last checkpoint: an attempt
			// evicted while running re-executes strictly less than one
			// interval of its own run time.
			if ck > 0 && tr.Fault == "preempt" && tr.Placed && tr.RunAt > 0 && tr.EndedAt >= tr.RunAt {
				lost := tr.Run() - tr.Saved
				if lost < 0 || lost >= ck {
					t.Fatalf("%s: origin %s attempt %d ran %v, banked %v: lost %v, want in [0, %v)",
						name, origin, a, tr.Run(), tr.Saved, lost, ck)
				}
			}
			i2 := i
			prevEnd = &i2
		}
	}

	fs := res.Faults
	if fs == nil {
		return
	}
	// Ledger consistency: the tallies are exactly what the records say.
	if fs.Evictions != evictedRecords {
		t.Fatalf("%s: FaultStats.Evictions %d but %d records carry the preempt fault kind", name, fs.Evictions, evictedRecords)
	}
	if fs.Resumes != resumedRecords {
		t.Fatalf("%s: FaultStats.Resumes %d but %d records started from checkpointed progress", name, fs.Resumes, resumedRecords)
	}
	// Ledger bounds: preemption waste is a share of total waste, and
	// neither is negative.
	const eps = 1e-9
	if fs.WastedCoreHours < -eps || fs.PreemptedCoreHours < -eps {
		t.Fatalf("%s: negative waste ledger (wasted %.4f, preempted %.4f)", name, fs.WastedCoreHours, fs.PreemptedCoreHours)
	}
	if fs.PreemptedCoreHours > fs.WastedCoreHours+eps {
		t.Fatalf("%s: preempted core-hours %.4f exceed total wasted %.4f", name, fs.PreemptedCoreHours, fs.WastedCoreHours)
	}
}

// TestPreemptSweepAcceptance pins the scenario's reason to exist on
// seeds 42–49: with preemptive steering, graceful drain plus a 15m
// checkpoint cadence strictly reduces wasted core-hours versus hard kill
// with checkpointing off on every seed, and the median evict-and-resume /
// kill-and-restart makespan ratio is at most 1. A single seed's makespan
// may go either way (the two cells are different schedules), so that
// claim is judged across seeds. Every cell of the run is also pushed
// through the invariant suite.
func TestPreemptSweepAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("full preemption grid in -short mode")
	}
	const firstSeed, nSeeds = 42, 8
	byName := runPreemptSweep(t, impress.ScenarioParams{Seed: firstSeed, Seeds: nSeeds, Targets: 8})
	for name, res := range byName {
		checkPreemptInvariants(t, name, res)
	}
	var ratios []float64
	for seed := uint64(firstSeed); seed < firstSeed+nSeeds; seed++ {
		kill := byName[fmt.Sprintf("preempt/kill+preempt/ck0/seed%d", seed)]
		resume := byName[fmt.Sprintf("preempt/drain+preempt/ck15m/seed%d", seed)]
		if kill == nil || resume == nil {
			t.Fatalf("seed %d: grid cells missing (have %d campaigns)", seed, len(byName))
		}
		if resume.Faults.WastedCoreHours >= kill.Faults.WastedCoreHours {
			t.Errorf("seed %d: evict-and-resume wasted %.2f core-h, kill-and-restart %.2f — resume must waste strictly less",
				seed, resume.Faults.WastedCoreHours, kill.Faults.WastedCoreHours)
		}
		ratio := resume.Makespan.Hours() / kill.Makespan.Hours()
		ratios = append(ratios, ratio)
		t.Logf("seed %d: makespan evict-and-resume %.2fh / kill-and-restart %.2fh = %.3f; wasted %.2f vs %.2f core-h",
			seed, resume.Makespan.Hours(), kill.Makespan.Hours(), ratio,
			resume.Faults.WastedCoreHours, kill.Faults.WastedCoreHours)
		if resume.Faults.Evictions == 0 {
			t.Errorf("seed %d: the drain cell never evicted", seed)
		}
		// The walltime still fires in kill mode — drain changes what
		// happens at the deadline, not whether it arrives.
		if kill.Faults.WalltimeKills == 0 {
			t.Errorf("seed %d: the kill cell recorded no walltime kills", seed)
		}
		// Checkpoint-aware recovery is the other face of the mechanism:
		// within plain kill-and-restart, a 15m cadence means walltime
		// victims resume from their checkpoints instead of from zero,
		// strictly cutting the wasted core-hours.
		killCold := byName[fmt.Sprintf("preempt/kill+none/ck0/seed%d", seed)]
		killWarm := byName[fmt.Sprintf("preempt/kill+none/ck15m/seed%d", seed)]
		if killCold == nil || killWarm == nil {
			t.Fatalf("seed %d: kill+none cells missing", seed)
		}
		if killWarm.Faults.Resumes == 0 {
			t.Errorf("seed %d: no walltime victim ever resumed from a checkpoint in the ck15m kill cell", seed)
		}
		if killWarm.Faults.WastedCoreHours >= killCold.Faults.WastedCoreHours {
			t.Errorf("seed %d: checkpointed restart wasted %.2f core-h, cold restart %.2f — checkpoints must waste strictly less",
				seed, killWarm.Faults.WastedCoreHours, killCold.Faults.WastedCoreHours)
		}
	}
	median := stats.Median(ratios)
	t.Logf("median makespan ratio evict-and-resume / kill-and-restart over %d seeds: %.3f", nSeeds, median)
	if median > 1 {
		t.Errorf("median evict-and-resume / kill-and-restart makespan ratio %.3f over %d seeds, want <= 1", median, nSeeds)
	}
}

// TestPreemptInvariantsRandomSeeds runs the invariant suite over the
// whole grid at seeds the acceptance test never looks at, drawn from a
// fixed-source RNG so failures reproduce.
func TestPreemptInvariantsRandomSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized preemption grids in -short mode")
	}
	rng := rand.New(rand.NewSource(20260808))
	for i := 0; i < 2; i++ {
		seed := uint64(100 + rng.Intn(10_000))
		byName := runPreemptSweep(t, impress.ScenarioParams{Seed: seed, Seeds: 1, Targets: 5})
		evictions := 0
		for name, res := range byName {
			checkPreemptInvariants(t, name, res)
			if res.Faults != nil {
				evictions += res.Faults.Evictions
			}
		}
		if evictions == 0 {
			t.Errorf("seed %d: no grid cell evicted anything; the invariant pass was vacuous", seed)
		}
	}
}

// TestAggregateTaskTimeCountsOnlyRunAttempts pins "Time (h)" to the
// attempts that reached their run phase. The kill+none/ck0 cell fails
// attempts while they are queued or in exec setup (RunAt 0); their
// records' Run() is an absolute end time, which must not leak into
// AggregateTaskTime.
func TestAggregateTaskTimeCountsOnlyRunAttempts(t *testing.T) {
	campaigns, err := impress.BuildScenario("preempt-sweep", impress.ScenarioParams{Seed: 42, Seeds: 1})
	if err != nil {
		t.Fatal(err)
	}
	const name = "preempt/kill+none/ck0/seed42"
	i := slices.IndexFunc(campaigns, func(c impress.Campaign) bool { return c.Name == name })
	if i < 0 {
		t.Fatalf("scenario has no cell %s", name)
	}
	out := impress.RunCampaigns(campaigns[i:i+1], 1)[0]
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	var ran time.Duration
	unran := 0
	for _, tr := range out.Result.TaskRecords {
		if tr.RunAt > 0 {
			ran += tr.Run()
		} else {
			unran++
		}
	}
	if unran == 0 {
		t.Fatalf("%s: every attempt reached its run phase; the cell no longer covers the case", name)
	}
	if got := out.Result.AggregateTaskTime; got != ran {
		t.Fatalf("%s: AggregateTaskTime %v, want %v (the run time of the attempts that ran; %d did not)", name, got, ran, unran)
	}
}
