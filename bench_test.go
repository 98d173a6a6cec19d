// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus ablations over the design choices DESIGN.md calls out.
//
// Each benchmark runs complete campaigns and reports the scientific
// quantities alongside wall time:
//
//	cpu%          average busy-core fraction of the simulated node
//	gpu%          average busy-GPU fraction
//	traj          design trajectories examined
//	task-hours    aggregate task execution time (the paper's "Time (h)")
//	makespan-h    campaign wall-clock span in virtual hours
//	dplddt        net pLDDT improvement (final − starting median)
//
// Regenerate everything: go test -bench=. -benchmem
package impress_test

import (
	"fmt"
	"testing"

	"impress"
	"impress/internal/core"
	"impress/internal/report"
	"impress/internal/sched"
)

// reportCampaign attaches the scientific metrics of a result to b.
func reportCampaign(b *testing.B, res *impress.Result) {
	b.Helper()
	b.ReportMetric(res.CPUUtilization*100, "cpu%")
	b.ReportMetric(res.GPUUtilization*100, "gpu%")
	b.ReportMetric(float64(res.TrajectoryCount()), "traj")
	b.ReportMetric(res.AggregateTaskTime.Hours(), "task-hours")
	b.ReportMetric(res.Makespan.Hours(), "makespan-h")
	b.ReportMetric(res.NetDelta(impress.PLDDT), "dplddt")
}

func namedTargets(b *testing.B, seed uint64) []*impress.Target {
	b.Helper()
	targets, err := impress.NamedPDZTargets(seed)
	if err != nil {
		b.Fatal(err)
	}
	return targets
}

// BenchmarkTableI_CONTV regenerates the CONT-V row of Table I: one
// sequential, non-adaptive campaign over the four named PDZ domains.
func BenchmarkTableI_CONTV(b *testing.B) {
	targets := namedTargets(b, 42)
	var res *impress.Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = impress.RunControl(targets, impress.ControlConfig(42))
		if err != nil {
			b.Fatal(err)
		}
	}
	reportCampaign(b, res)
}

// BenchmarkTableI_IMRP regenerates the IM-RP row of Table I: the adaptive
// campaign with asynchronous execution and dynamic sub-pipelines.
func BenchmarkTableI_IMRP(b *testing.B) {
	targets := namedTargets(b, 42)
	var res *impress.Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = impress.RunAdaptive(targets, impress.AdaptiveConfig(42))
		if err != nil {
			b.Fatal(err)
		}
	}
	reportCampaign(b, res)
}

// BenchmarkFig2 regenerates Figure 2: the CONT-V vs IM-RP per-iteration
// metric comparison over the four PDZ-peptide structures.
func BenchmarkFig2(b *testing.B) {
	var out paperRun
	for i := 0; i < b.N; i++ {
		out = runPaper(b, "fig2", impress.ScenarioParams{Seed: 42})
	}
	reportCampaign(b, out.Results["IM-RP"])
}

// BenchmarkFig3 regenerates Figure 3: the expanded IM-RP workflow over 70
// PDB-mined complexes with adaptivity disabled in the final cycle.
func BenchmarkFig3(b *testing.B) {
	var out paperRun
	for i := 0; i < b.N; i++ {
		out = runPaper(b, "fig3", impress.ScenarioParams{Seed: 44, Targets: 70})
	}
	res := out.Results["IM-RP"]
	reportCampaign(b, res)
	b.ReportMetric(float64(res.SubPipelines), "sub-pl")
	it3, _ := res.IterationSummary(3, impress.PLDDT)
	it4, _ := res.IterationSummary(4, impress.PLDDT)
	b.ReportMetric(it4-it3, "final-drop")
}

// BenchmarkFig4 regenerates Figure 4: CONT-V's CPU/GPU utilization trace.
func BenchmarkFig4(b *testing.B) {
	var out paperRun
	for i := 0; i < b.N; i++ {
		out = runPaper(b, "fig4", impress.ScenarioParams{Seed: 42})
	}
	reportCampaign(b, out.Results["CONT-V"])
}

// BenchmarkFig5 regenerates Figure 5: IM-RP's CPU/GPU utilization trace
// and runtime phase breakdown.
func BenchmarkFig5(b *testing.B) {
	var out paperRun
	for i := 0; i < b.N; i++ {
		out = runPaper(b, "fig5", impress.ScenarioParams{Seed: 42})
	}
	reportCampaign(b, out.Results["IM-RP"])
}

// BenchmarkAblationRetryDepth varies Stage 6's alternate-sequence budget:
// 0 disables retries entirely; the paper uses 10.
func BenchmarkAblationRetryDepth(b *testing.B) {
	for _, depth := range []int{0, 1, 5, 10} {
		b.Run(fmt.Sprintf("retries=%d", depth), func(b *testing.B) {
			targets := namedTargets(b, 42)
			cfg := impress.AdaptiveConfig(42)
			cfg.Pipeline.MaxRetries = depth
			var res *impress.Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = impress.RunAdaptive(targets, cfg)
				if err != nil {
					b.Fatal(err)
				}
			}
			reportCampaign(b, res)
			b.ReportMetric(float64(res.EarlyTerminated), "terminated")
		})
	}
}

// BenchmarkAblationSubPipelines isolates the contribution of dynamic
// sub-pipeline generation to utilization and quality.
func BenchmarkAblationSubPipelines(b *testing.B) {
	for _, enabled := range []bool{false, true} {
		name := "off"
		if enabled {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			targets := namedTargets(b, 42)
			cfg := impress.AdaptiveConfig(42)
			cfg.Sub.Enabled = enabled
			var res *impress.Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = impress.RunAdaptive(targets, cfg)
				if err != nil {
					b.Fatal(err)
				}
			}
			reportCampaign(b, res)
			b.ReportMetric(float64(res.SubPipelines), "sub-pl")
		})
	}
}

// BenchmarkAblationSplitFold compares the ParaFold-style CPU/GPU task
// split against the monolithic AlphaFold task, and the MSA reuse option —
// the mechanisms behind the Fig. 4 vs Fig. 5 utilization contrast.
func BenchmarkAblationSplitFold(b *testing.B) {
	cases := []struct {
		name            string
		split, reuseMSA bool
	}{
		{"monolithic", false, false},
		{"split", true, false},
		{"split-reuse-msa", true, true},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			targets := namedTargets(b, 42)
			cfg := impress.AdaptiveConfig(42)
			cfg.Pipeline.SplitFold = c.split
			cfg.Pipeline.ReuseMSA = c.reuseMSA
			var res *impress.Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = impress.RunAdaptive(targets, cfg)
				if err != nil {
					b.Fatal(err)
				}
			}
			reportCampaign(b, res)
		})
	}
}

// BenchmarkAblationSelection compares candidate selection policies: the
// GA's log-likelihood ranking, CONT-V's random pick, and the oracle upper
// bound that reads the hidden landscape directly.
func BenchmarkAblationSelection(b *testing.B) {
	policies := []struct {
		name   string
		policy impress.SelectionPolicy
	}{
		{"best-loglik", impress.SelectBestLogLikelihood},
		{"random", impress.SelectRandom},
		{"oracle", impress.SelectOracle},
	}
	for _, p := range policies {
		b.Run(p.name, func(b *testing.B) {
			targets := namedTargets(b, 42)
			cfg := impress.AdaptiveConfig(42)
			cfg.Pipeline.Selection = p.policy
			var res *impress.Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = impress.RunAdaptive(targets, cfg)
				if err != nil {
					b.Fatal(err)
				}
			}
			reportCampaign(b, res)
		})
	}
}

// BenchmarkAblationConcurrency caps the number of concurrently active
// pipelines, measuring the asynchronous-execution headroom the
// coordinator exploits.
func BenchmarkAblationConcurrency(b *testing.B) {
	for _, cap := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("pipelines=%d", cap), func(b *testing.B) {
			targets := namedTargets(b, 42)
			cfg := impress.AdaptiveConfig(42)
			cfg.MaxConcurrent = cap
			var res *impress.Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = impress.RunAdaptive(targets, cfg)
				if err != nil {
					b.Fatal(err)
				}
			}
			reportCampaign(b, res)
		})
	}
}

// BenchmarkSweepWorkers measures the campaign engine's wall-clock
// speedup as the worker pool widens: an 8-seed CONT-V vs IM-RP sweep
// (16 campaigns) at 1, 2, 4, and 8 workers. Outcomes are bit-identical
// across worker counts; only ns/op should fall.
func BenchmarkSweepWorkers(b *testing.B) {
	campaigns, err := impress.BuildScenario("sweep", impress.ScenarioParams{Seed: 100, Seeds: 8})
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var outs []impress.CampaignOutcome
			for i := 0; i < b.N; i++ {
				outs = impress.RunCampaigns(campaigns, workers)
			}
			traj := 0
			for _, o := range outs {
				if o.Err != nil {
					b.Fatal(o.Err)
				}
				traj += o.Result.TrajectoryCount()
			}
			b.ReportMetric(float64(len(outs)), "campaigns")
			b.ReportMetric(float64(traj), "traj")
		})
	}
}

// BenchmarkSplitPilots compares the single shared pilot against the
// heterogeneous CPU/GPU pilot pair on the adaptive 4-PDZ campaign.
func BenchmarkSplitPilots(b *testing.B) {
	for _, split := range []bool{false, true} {
		name := "single"
		if split {
			name = "split"
		}
		b.Run(name, func(b *testing.B) {
			targets := namedTargets(b, 42)
			cfg := impress.AdaptiveConfig(42)
			if split {
				pilots, err := core.SplitPilots(cfg.Machine)
				if err != nil {
					b.Fatal(err)
				}
				cfg.Pilots = pilots
			}
			var res *impress.Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = impress.RunAdaptive(targets, cfg)
				if err != nil {
					b.Fatal(err)
				}
			}
			reportCampaign(b, res)
		})
	}
}

// BenchmarkPolicyCompare races every registered scheduling policy on the
// adaptive 4-PDZ campaign — one sub-benchmark per policy, so the
// per-policy makespan/utilization deltas print side by side.
func BenchmarkPolicyCompare(b *testing.B) {
	for _, pol := range sched.Names() {
		b.Run(pol, func(b *testing.B) {
			targets := namedTargets(b, 42)
			cfg := impress.AdaptiveConfig(42)
			cfg.Policy = pol
			var res *impress.Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = impress.RunAdaptive(targets, cfg)
				if err != nil {
					b.Fatal(err)
				}
			}
			reportCampaign(b, res)
			wait, _ := res.QueueWait()
			b.ReportMetric(wait.Minutes(), "queue-wait-m")
		})
	}
}

// benchScreenScaling is one cell of BenchmarkScreenScaling.
func benchScreenScaling(b *testing.B, n int) {
	screen, err := impress.PDZScreen(42, n)
	if err != nil {
		b.Fatal(err)
	}
	cfg := impress.AdaptiveConfig(42)
	var res *impress.Result
	for i := 0; i < b.N; i++ {
		res, err = impress.RunAdaptive(screen, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportCampaign(b, res)
}

// BenchmarkScreenScaling measures coordinator throughput as the workload
// widens (trajectory counts grow superlinearly through sub-pipelines).
func BenchmarkScreenScaling(b *testing.B) {
	for _, n := range []int{8, 16, 32} {
		b.Run(fmt.Sprintf("targets=%d", n), func(b *testing.B) { benchScreenScaling(b, n) })
	}
}

// BenchmarkMegaScreen runs the mega-screen scenario — a 128-target
// IM-RP screen on the split CPU/GPU pilot pair — end to end through the
// campaign engine. It is the headroom demonstration for the
// allocation-free simulation hot path: nearly double the paper's Fig. 3
// workload, on the heterogeneous two-pilot placement, in one op.
func BenchmarkMegaScreen(b *testing.B) {
	campaigns, err := impress.BuildScenario("mega-screen", impress.ScenarioParams{Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	var outs []impress.CampaignOutcome
	for i := 0; i < b.N; i++ {
		outs = impress.RunCampaigns(campaigns, 1)
		for _, o := range outs {
			if o.Err != nil {
				b.Fatalf("campaign %s failed: %v", o.Name, o.Err)
			}
		}
	}
	reportCampaign(b, outs[0].Result)
}

// BenchmarkKiloScreen runs the kilo-screen scenario — a 128-target IM-RP
// screen on a generated 1000-node heterogeneous fleet with faults,
// recovery, and steering all active — end to end through the campaign
// engine. This is the scale the indexed allocation ledger exists for:
// every scheduling pass walks a thousand-node free-capacity ledger.
func BenchmarkKiloScreen(b *testing.B) {
	campaigns, err := impress.BuildScenario("kilo-screen", impress.ScenarioParams{Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	var outs []impress.CampaignOutcome
	for i := 0; i < b.N; i++ {
		outs = impress.RunCampaigns(campaigns, 1)
		for _, o := range outs {
			if o.Err != nil {
				b.Fatalf("campaign %s failed: %v", o.Name, o.Err)
			}
		}
	}
	res := outs[0].Result
	reportCampaign(b, res)
	b.ReportMetric(float64(res.NodeTransfers), "transfers")
	if res.Faults != nil {
		b.ReportMetric(100*res.Goodput(), "goodput-%")
	}
}

// benchTelemetry is one telemetry-overhead cell of BenchmarkTelemetry:
// the seed-42 pair
// scenario (CONT-V + IM-RP, the golden workload) with the observability
// recorder on or off. The off mode is the hot path the golden and
// allocation guards pin; the on mode additionally records task spans,
// per-pilot queue-depth and occupancy gauges, and instant events. The
// delta between the two is the total price of observability.
func benchTelemetry(b *testing.B, enabled bool) {
	campaigns, err := impress.BuildScenario("pair", impress.ScenarioParams{
		Seed:      42,
		Telemetry: enabled,
	})
	if err != nil {
		b.Fatal(err)
	}
	var outs []impress.CampaignOutcome
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		outs = impress.RunCampaigns(campaigns, 1)
		for _, o := range outs {
			if o.Err != nil {
				b.Fatalf("campaign %s failed: %v", o.Name, o.Err)
			}
		}
	}
	res := outs[1].Result
	reportCampaign(b, res)
	if enabled {
		points := 0
		for _, s := range res.Telemetry.Series {
			points += len(s)
		}
		for _, s := range res.QueueSeries {
			points += len(s)
		}
		b.ReportMetric(float64(points), "series-points")
		b.ReportMetric(float64(len(res.Telemetry.Instants)), "instants")
	}
}

// BenchmarkTelemetry is the observability on/off A/B on the pair
// workload. The off cell must match the pre-telemetry pair numbers;
// the on cell prices the recorder.
func BenchmarkTelemetry(b *testing.B) {
	for _, enabled := range []bool{false, true} {
		name := "off"
		if enabled {
			name = "on"
		}
		b.Run(name, func(b *testing.B) { benchTelemetry(b, enabled) })
	}
}

// BenchmarkFaultSweep runs a one-seed, single-rate resilience sweep —
// the fault-free baseline plus every recovery policy at a 20% per-task
// failure rate — on the campaign engine, reporting per-policy goodput.
// CI runs it at -benchtime 1x as the fault subsystem's smoke test.
func BenchmarkFaultSweep(b *testing.B) {
	campaigns, err := impress.BuildScenario("fault-sweep", impress.ScenarioParams{
		Seed:  42,
		Seeds: 1,
		Fault: impress.FaultSpec{TaskFailProb: 0.2},
	})
	if err != nil {
		b.Fatal(err)
	}
	var outs []impress.CampaignOutcome
	for i := 0; i < b.N; i++ {
		outs = impress.RunCampaigns(campaigns, 0)
		for _, o := range outs {
			if o.Err != nil {
				b.Fatalf("campaign %s failed: %v", o.Name, o.Err)
			}
		}
	}
	goodput, faulty := 0.0, 0
	for _, o := range outs {
		if o.Result.Faults != nil {
			goodput += o.Result.Goodput()
			faulty++
		}
	}
	b.ReportMetric(float64(len(outs)), "campaigns")
	b.ReportMetric(100*goodput/float64(faulty), "goodput-%")
}

// BenchmarkElasticScreen races the steering policies against the frozen
// split on the 4-node split placement — the perf harness behind the
// elastic-screen scenario. The reported speedup is the frozen split's
// makespan over the best steered makespan.
func BenchmarkElasticScreen(b *testing.B) {
	campaigns, err := impress.BuildScenario("elastic-screen", impress.ScenarioParams{
		Seed:    42,
		Seeds:   1,
		Targets: 12,
	})
	if err != nil {
		b.Fatal(err)
	}
	var outs []impress.CampaignOutcome
	for i := 0; i < b.N; i++ {
		outs = impress.RunCampaigns(campaigns, 0)
		for _, o := range outs {
			if o.Err != nil {
				b.Fatalf("campaign %s failed: %v", o.Name, o.Err)
			}
		}
	}
	frozen, best, transfers := 0.0, 0.0, 0
	for _, o := range outs {
		h := o.Result.Makespan.Hours()
		if o.Result.SteerLabel() == "none" {
			frozen = h
		} else if best == 0 || h < best {
			best = h
		}
		transfers += o.Result.NodeTransfers
	}
	b.ReportMetric(float64(len(outs)), "campaigns")
	b.ReportMetric(float64(transfers), "transfers")
	if best > 0 {
		b.ReportMetric(frozen/best, "best-speedup")
	}
}

// BenchmarkChaosSweep runs a one-seed chaos grid — the fault-free
// frozen baseline plus every recovery × steering cell on the labeled
// default fleet under the fixed correlated-failure mix — reporting mean
// goodput over the faulty cells and the total correlated-event counts.
// CI runs it at -benchtime 1x as the failure-domain smoke test.
func BenchmarkChaosSweep(b *testing.B) {
	campaigns, err := impress.BuildScenario("chaos-sweep", impress.ScenarioParams{
		Seed:    42,
		Seeds:   1,
		Targets: 8,
	})
	if err != nil {
		b.Fatal(err)
	}
	var outs []impress.CampaignOutcome
	for i := 0; i < b.N; i++ {
		outs = impress.RunCampaigns(campaigns, 0)
		for _, o := range outs {
			if o.Err != nil {
				b.Fatalf("campaign %s failed: %v", o.Name, o.Err)
			}
		}
	}
	goodput, faulty := 0.0, 0
	outages, maints := 0, 0
	for _, o := range outs {
		if f := o.Result.Faults; f != nil {
			goodput += o.Result.Goodput()
			faulty++
			outages += f.DomainOutages
			maints += f.MaintenanceWindows
		}
	}
	b.ReportMetric(float64(len(outs)), "campaigns")
	b.ReportMetric(100*goodput/float64(faulty), "goodput-%")
	b.ReportMetric(float64(outages), "outages")
	b.ReportMetric(float64(maints), "maint-windows")
}

// BenchmarkPreemptSweep runs the one-seed preemption grid (fault-free
// baseline plus every checkpoint-cadence × kill-vs-drain × steering
// cell) end to end, reporting the grid's total evictions and resumes and
// the headline waste comparison — wasted core-hours with checkpointing
// off (the kill+none/ck0 cell) against the evict-and-resume cell
// (drain+preempt/ck15m). CI runs it at -benchtime 1x as the
// checkpointed-preemption smoke test.
func BenchmarkPreemptSweep(b *testing.B) {
	campaigns, err := impress.BuildScenario("preempt-sweep", impress.ScenarioParams{
		Seed:    42,
		Seeds:   1,
		Targets: 8,
	})
	if err != nil {
		b.Fatal(err)
	}
	var outs []impress.CampaignOutcome
	for i := 0; i < b.N; i++ {
		outs = impress.RunCampaigns(campaigns, 0)
		for _, o := range outs {
			if o.Err != nil {
				b.Fatalf("campaign %s failed: %v", o.Name, o.Err)
			}
		}
	}
	evictions, resumes := 0, 0
	var wastedOff, wastedOn float64
	for _, o := range outs {
		f := o.Result.Faults
		if f == nil {
			continue
		}
		evictions += f.Evictions
		resumes += f.Resumes
		switch o.Name {
		case "preempt/kill+none/ck0/seed42":
			wastedOff = f.WastedCoreHours
		case "preempt/drain+preempt/ck15m/seed42":
			wastedOn = f.WastedCoreHours
		}
	}
	b.ReportMetric(float64(len(outs)), "campaigns")
	b.ReportMetric(float64(evictions), "evictions")
	b.ReportMetric(float64(resumes), "resumes")
	b.ReportMetric(wastedOff, "wasted-ck-off")
	b.ReportMetric(wastedOn, "wasted-ck-on")
}

// BenchmarkTenantSweep runs the one-seed admission grid — every
// admission-control policy over eight campaigns arriving on one shared
// 12-node fleet with fairshare reclaim — end to end, reporting the best
// Jain's index, the fcfs baseline index, and the grid's total
// inter-campaign node reclaims. CI runs it at -benchtime 1x as the
// multi-tenant service's smoke test.
func BenchmarkTenantSweep(b *testing.B) {
	campaigns, err := impress.BuildScenario("tenant-sweep", impress.ScenarioParams{
		Seed:    42,
		Seeds:   1,
		Targets: 8,
	})
	if err != nil {
		b.Fatal(err)
	}
	var outs []impress.CampaignOutcome
	for i := 0; i < b.N; i++ {
		outs = impress.RunCampaigns(campaigns, 0)
		for _, o := range outs {
			if o.Err != nil {
				b.Fatalf("campaign %s failed: %v", o.Name, o.Err)
			}
		}
	}
	bestJain, fcfsJain, reclaims := 0.0, 0.0, 0
	for _, o := range outs {
		j := report.JainOf(o.Result)
		if j > bestJain {
			bestJain = j
		}
		if o.Result.Admission == "fcfs-admit" {
			fcfsJain = j
		}
		reclaims += o.Result.NodeTransfers
	}
	b.ReportMetric(float64(len(outs)), "campaigns")
	b.ReportMetric(bestJain, "best-jain")
	b.ReportMetric(fcfsJain, "fcfs-jain")
	b.ReportMetric(float64(reclaims), "reclaims")
}
