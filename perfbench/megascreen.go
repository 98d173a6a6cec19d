package main

import (
	"fmt"

	"impress/internal/core"
	"impress/internal/fault"
	"impress/internal/pipeline"
	"impress/internal/simclock"
	"impress/internal/trace"
	"impress/internal/workload"
)

// megaScreenTargets sizes the mined screen. At 48 targets one repetition
// takes about 5 s on a 2-vCPU VM, so a 30 s run holds enough repetitions
// for a steady median.
const megaScreenTargets = 48

// megaScreen is one IM-RP campaign over the mined screen on the split
// CPU/GPU pilot pair — the science-heavy workload. The benchmark owns the
// engine: set-up arms the coordinator on it with StartOn, the run steps it
// dry and harvests the result with Finish.
type megaScreen struct {
	targets []*workload.Target
	cfg     core.Config
	coord   *core.Coordinator
	engine  *simclock.Engine
}

func setupMegaScreen(seed uint64, tr *tracer) (instance, error) {
	end := tr.begin("workload.build")
	targets, err := workload.MinedScreen(seed, megaScreenTargets, workload.DefaultConfig())
	end()
	if err != nil {
		return nil, err
	}
	cfg := core.AdaptiveConfig(seed)
	if cfg.Pilots, err = core.SplitPilots(cfg.Machine); err != nil {
		return nil, err
	}
	cfg.Pipeline.MPNN.Parallelism = mpnnParallelism
	end = tr.begin("core.start")
	defer end()
	coord, err := core.NewCoordinator(targets, cfg)
	if err != nil {
		return nil, err
	}
	engine := simclock.New()
	if err := coord.StartOn(engine, nil); err != nil {
		return nil, err
	}
	return &megaScreen{targets: targets, cfg: cfg, coord: coord, engine: engine}, nil
}

func (m *megaScreen) run(tr *tracer) (*outcome, error) {
	tr.drive(m.engine)
	end := tr.begin("core.finish")
	res, err := m.coord.Finish(m.engine.Now())
	end()
	if err != nil {
		return nil, err
	}
	return campaignOutcome(res, m.engine.Fired()), nil
}

func (m *megaScreen) scienceInputs() ([]*workload.Target, pipeline.Params, core.SubPolicy) {
	return m.targets, m.cfg.Pipeline, m.cfg.Sub
}

// campaignOutcome reads the end-to-end figures, correctness checks and
// per-layer counts shared by the campaign workloads off a result.
func campaignOutcome(res *core.Result, events uint64) *outcome {
	gain := res.NetDelta(core.PLDDTOf)
	out := &outcome{
		tasksFinal: finalRecords(res.TaskRecords),
		makespanH:  res.Makespan.Hours(),
		plddtGain:  gain,
		records:    res.TaskRecords,
		digest: fmt.Sprintf("makespan=%d tasks=%d records=%d trajectories=%d evaluations=%d subs=%d events=%d gain=%.9g",
			res.Makespan, res.TaskCount, len(res.TaskRecords), res.TrajectoryCount(), res.Evaluations,
			res.SubPipelines, events, gain),
		layer: map[string]float64{},
	}
	out.checks = []check{
		checkf("records == TaskCount", len(res.TaskRecords) == res.TaskCount,
			"%d task records, TaskCount %d", len(res.TaskRecords), res.TaskCount),
		checkf("plddt_gain > 0", gain > 0, "net median pLDDT gain %.4f", gain),
		checkf("failed tasks", res.FailedTasks == 0, "%d failed tasks", res.FailedTasks),
	}
	mpnnCalls, evictions, resumes := 0, 0, 0
	for _, r := range res.TaskRecords {
		if r.Stage == "mpnn" {
			mpnnCalls++
		}
		if r.Fault == fault.KindPreempt.String() {
			evictions++
		}
		if r.Resumed > 0 {
			resumes++
		}
	}
	l := out.layer
	if events > 0 {
		l["simclock.events"] = float64(events)
	}
	l["workload.targets"] = float64(len(res.Targets))
	l["mpnn.design_calls"] = float64(mpnnCalls)
	l["fold.predict_calls"] = float64(res.Evaluations)
	if res.Evaluations > 0 {
		l["fold.useful_ratio"] = float64(res.TrajectoryCount()) / float64(res.Evaluations)
	}
	l["pilot.attempts"] = float64(len(res.TaskRecords))
	l["pilot.useful_ratio"] = doneRatio(res.TaskRecords)
	l["sched.queue_wait_p50_h"], l["sched.queue_wait_p99_h"] = queueWait(res.TaskRecords)
	l["preempt.evictions"] = float64(evictions)
	l["preempt.resumes"] = float64(resumes)
	return out
}

// finalRecords counts attempts that ended in a final state.
func finalRecords(recs []trace.TaskRecord) int {
	n := 0
	for _, r := range recs {
		switch r.State {
		case "DONE", "FAILED", "CANCELED":
			n++
		}
	}
	return n
}

// doneRatio is completed attempts over all attempts.
func doneRatio(recs []trace.TaskRecord) float64 {
	if len(recs) == 0 {
		return 0
	}
	done := 0
	for _, r := range recs {
		if r.State == "DONE" {
			done++
		}
	}
	return float64(done) / float64(len(recs))
}

// queueWait returns the median and 99th-percentile virtual queue wait, in
// hours, over attempts that were placed.
func queueWait(recs []trace.TaskRecord) (p50, p99 float64) {
	var waits []float64
	for _, r := range recs {
		if r.Placed {
			waits = append(waits, r.Wait().Hours())
		}
	}
	if len(waits) == 0 {
		return 0, 0
	}
	return quantile(waits, 0.5), quantile(waits, 0.99)
}
