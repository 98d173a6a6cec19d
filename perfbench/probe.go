package main

import (
	"context"
	"runtime/pprof"
	"strings"
	"time"

	"impress/internal/core"
	"impress/internal/fold"
	"impress/internal/landscape"
	"impress/internal/mpnn"
	"impress/internal/pipeline"
	"impress/internal/trace"
	"impress/internal/workload"
	"impress/internal/xrand"
)

// scienceWorkload is an instance that runs the science kernels; the traced
// run probes them on the instance's own targets and campaign parameters.
type scienceWorkload interface {
	scienceInputs() (targets []*workload.Target, params pipeline.Params, sub core.SubPolicy)
}

const (
	// probeTargets bounds how many of the workload's targets the probes
	// visit (an even stride over the list).
	probeTargets = 24
	// predictReps repeats the sub-millisecond fold prediction per call.
	predictReps = 20
	// probeRounds times each surrogate kernel this many times per target.
	// The mean over rounds counts, as the run's cost is the sum over its
	// calls, bursts of machine noise included.
	probeRounds = 3
)

// probeLabel marks probe work in the CPU profile, so the profile's shares
// describe the simulation alone.
var probeLabel = pprof.Labels("perfbench", "probe")

// scienceProbe times the science kernels standalone on a workload's
// targets. Its calls are queued before the traced repetition and run one
// at a time between its engine steps, so probe and run see the same
// machine speed and the same cache pressure. Per-call means are scaled by
// the run's call counts afterwards. Base and sub-pipelines run with
// different MPNN and fold settings, so each is probed with its own
// parameters and weighted by its own call count.
type scienceProbe struct {
	calls []func()
	spent time.Duration // wall time of the calls run so far

	n             int
	newT, sampleT time.Duration
	predictT      [2]time.Duration
	design        [][2][]float64 // per target, per kind: round durations, ns
	corrupt       [][]float64    // per target: round durations, ns
}

func newScienceProbe(targets []*workload.Target, params pipeline.Params, subPol core.SubPolicy) (*scienceProbe, error) {
	sub := params
	sub.MPNN.Temperature *= subPol.TempFactor
	sub.MPNN.NumSequences += subPol.ExtraSequences
	if subPol.ModelFactor > 1 {
		sub.Fold.NumModels *= subPol.ModelFactor
	}
	kinds := [2]pipeline.Params{params, sub}
	lcfg := workload.DefaultConfig().Landscape
	p := &scienceProbe{}
	var rounds []func()
	stride := max(1, len(targets)/probeTargets)
	for i := 0; i < len(targets); i += stride {
		tg := targets[i]
		st, truth := tg.Structure, tg.Truth
		full := st.FullSequence()
		seed := xrand.Derive(tg.Seed, "probe")
		j := p.n
		p.n++
		p.design = append(p.design, [2][]float64{})
		p.corrupt = append(p.corrupt, nil)

		p.calls = append(p.calls, func() { p.newT += timed(func() { landscape.New(st, tg.Seed, lcfg) }) })
		var samplers [2]*mpnn.Sampler
		for k, kp := range kinds {
			s, err := mpnn.New(truth, kp.MPNN)
			if err != nil {
				return nil, err
			}
			s.Design(st, seed) // warm-up: leaves a recycled surrogate behind, as in the run
			samplers[k] = s
			pr, err := fold.New(truth, kp.Fold, seed)
			if err != nil {
				return nil, err
			}
			p.calls = append(p.calls, func() {
				p.predictT[k] += timed(func() {
					for r := 0; r < predictReps; r++ {
						pr.Predict(full, st.IsComplex())
					}
				}) / predictReps
			})
		}
		level := samplers[0].CorruptionFor(st.Generation)
		opts := landscape.SampleOptions{
			Sweeps:      params.MPNN.Sweeps,
			Temperature: params.MPNN.Temperature,
			Fixed:       redesignMask(truth.RecLen, truth.Len(), params.MPNN.RedesignFraction),
			Seed:        seed,
		}
		p.calls = append(p.calls, func() {
			sur := truth.Corrupt(level, seed)
			p.sampleT += timed(func() { sur.Sample(full, opts) })
			truth.Recycle(sur)
		})
		for r := uint64(1); r <= probeRounds; r++ {
			for k, s := range samplers {
				rounds = append(rounds, func() {
					p.design[j][k] = append(p.design[j][k], float64(timed(func() { s.Design(st, seed+r) })))
				})
			}
			rounds = append(rounds, func() {
				p.corrupt[j] = append(p.corrupt[j], float64(timed(func() { truth.Recycle(truth.Corrupt(level, seed+r)) })))
			})
		}
	}
	// The surrogate rounds go last, cycling through the targets, so each
	// call finds its target's memory as cold as the run does.
	p.calls = append(p.calls, rounds...)
	return p, nil
}

func timed(f func()) time.Duration {
	t0 := time.Now()
	f()
	return time.Since(t0)
}

// next runs the next queued call, labelled out of the CPU profile, and
// reports whether one ran.
func (p *scienceProbe) next() bool {
	if len(p.calls) == 0 {
		return false
	}
	f := p.calls[0]
	p.calls = p.calls[1:]
	p.spent += timed(func() { pprof.Do(context.Background(), probeLabel, func(context.Context) { f() }) })
	return true
}

// metrics drains any calls the run left no room for and scales the
// per-call means by the run's payload executions. Shares are against wallS,
// the traced repetition's run time without the probes, the interval the
// CPU profile describes.
func (p *scienceProbe) metrics(records []trace.TaskRecord, wallS float64) map[string]float64 {
	for p.next() {
	}
	var designs, predicts [2]float64 // payload executions: base, sub
	for _, r := range records {
		if r.RunAt <= 0 {
			continue // never reached the running phase, so the payload never ran
		}
		k := 0
		if strings.HasPrefix(r.Pipeline, "sub.") {
			k = 1
		}
		switch r.Stage {
		case "mpnn":
			designs[k]++
		case "af_fold":
			predicts[k]++
		}
	}
	var designT [2]time.Duration
	var corruptT time.Duration
	for j := 0; j < p.n; j++ {
		for k := range designT {
			designT[k] += time.Duration(mean(p.design[j][k]))
		}
		corruptT += time.Duration(mean(p.corrupt[j]))
	}
	perCall := func(d time.Duration) float64 { return d.Seconds() / float64(p.n) }
	mpnnS := designs[0]*perCall(designT[0]) + designs[1]*perCall(designT[1])
	foldS := predicts[0]*perCall(p.predictT[0]) + predicts[1]*perCall(p.predictT[1])
	m := map[string]float64{
		"science.probe_targets": float64(p.n),
		"landscape.new_ms":      1e3 * perCall(p.newT),
		"landscape.corrupt_ms":  1e3 * perCall(corruptT),
		"landscape.sample_ms":   1e3 * perCall(p.sampleT),
		"mpnn.share":            mpnnS / wallS,
		"fold.share":            foldS / wallS,
		"science.share":         (mpnnS + foldS) / wallS,
	}
	if c := designs[0] + designs[1]; c > 0 {
		m["mpnn.design_ms"] = 1e3 * mpnnS / c
	}
	if c := predicts[0] + predicts[1]; c > 0 {
		m["fold.predict_ms"] = 1e3 * foldS / c
	}
	return m
}

// redesignMask fixes all but a fraction of the receptor positions, the
// shape of mask a design stage samples under.
func redesignMask(recLen, n int, fraction float64) []bool {
	mask := make([]bool, n)
	for pos := range mask {
		mask[pos] = pos >= recLen || float64((pos*37)%100) >= 100*fraction
	}
	return mask
}
