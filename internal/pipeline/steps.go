package pipeline

import (
	"fmt"

	"impress/internal/fold"
	"impress/internal/ga"
	"impress/internal/mpnn"
	"impress/internal/pilot"
	"impress/internal/protein"
	"impress/internal/xrand"
)

// tags builds the task metadata the coordinator routes results by.
func (p *Pipeline) tags(stage Stage) map[string]string {
	return map[string]string{
		"pipeline": p.ID,
		"stage":    stage.String(),
		"target":   p.target.Name,
		"cycle":    fmt.Sprintf("%d", p.cycle+1),
	}
}

func (p *Pipeline) taskName(stage Stage) string {
	return fmt.Sprintf("%s:%s:c%d", p.ID, stage, p.cycle+1)
}

// stageSeed derives the deterministic stream for a stage instance. It
// depends only on pipeline identity and cycle — never on task IDs — so
// scientific results are invariant under scheduling order.
func (p *Pipeline) stageSeed(stage Stage) uint64 {
	return xrand.Derive(p.params.Seed, fmt.Sprintf("%s:%s:c%d", p.ID, stage, p.cycle+1))
}

// mpnnStep builds S1: ProteinMPNN sequence generation on a GPU.
func (p *Pipeline) mpnnStep() Step {
	st := p.st
	cost := p.params.Cost
	seed := p.stageSeed(StageMPNN)
	n := p.params.MPNN.NumSequences
	work := pilot.WorkFunc(func(ctx *pilot.ExecContext) (pilot.Result, error) {
		designs := p.sampler.Design(st, seed)
		d := cost.MPNNDuration(n, ctx.Seed)
		return pilot.Result{
			Value: designs,
			Phases: []pilot.Phase{{
				Name: "sampling", Duration: d,
				BusyCores: cost.MPNNCores, BusyGPUs: cost.MPNNGPUs,
			}},
		}, nil
	})
	return Step{Stage: StageMPNN, Desc: pilot.TaskDescription{
		Name:  p.taskName(StageMPNN),
		Cores: cost.MPNNCores,
		GPUs:  cost.MPNNGPUs,
		Work:  work,
		Tags:  p.tags(StageMPNN),
	}}
}

// rankStep builds S2: sort the designs into a try order. In a
// non-adaptive cycle (CONT-V, or the final cycle when FinalCycleAdaptive
// is off) the whole adaptive apparatus is absent, so selection degrades
// to a random pick — the behaviour whose quality drop Fig. 3 demonstrates.
func (p *Pipeline) rankStep() Step {
	designs := p.designs
	cost := p.params.Cost
	policy := p.params.Selection
	if !p.adaptiveNow() {
		policy = ga.SelectRandom
	}
	seed := p.stageSeed(StageRank)
	truth := p.target.Truth
	var oracle func(mpnn.Design) float64
	if policy == ga.SelectOracle {
		oracle = func(d mpnn.Design) float64 { return truth.TrueMetrics(d.Full).Quality() }
	}
	work := pilot.WorkFunc(func(ctx *pilot.ExecContext) (pilot.Result, error) {
		order := ga.TryOrder(policy, designs, oracle, seed)
		return pilot.Result{
			Value: order,
			Phases: []pilot.Phase{{
				Name: "ranking", Duration: cost.RankDuration,
				BusyCores: cost.SmallTaskCores,
			}},
		}, nil
	})
	return Step{Stage: StageRank, Desc: pilot.TaskDescription{
		Name:  p.taskName(StageRank),
		Cores: cost.SmallTaskCores,
		Work:  work,
		Tags:  p.tags(StageRank),
	}}
}

// fastaStep builds S3: compile the ranked candidates into FASTA input for
// AlphaFold.
func (p *Pipeline) fastaStep() Step {
	designs := p.designs
	order := p.order
	st := p.st
	cost := p.params.Cost
	work := pilot.WorkFunc(func(ctx *pilot.ExecContext) (pilot.Result, error) {
		records := make([]protein.FastaRecord, 0, len(order))
		for rank, idx := range order {
			d := designs[idx]
			seq := d.Receptor.String()
			if st.IsComplex() {
				seq += ":" + st.Peptide.Seq.String()
			}
			records = append(records, protein.FastaRecord{
				Header: fmt.Sprintf("%s rank=%d loglik=%.4f", st.Name, rank, d.LogLikelihood),
				Seq:    seq,
			})
		}
		return pilot.Result{
			Value: protein.FastaString(records),
			Phases: []pilot.Phase{{
				Name: "fasta", Duration: cost.FastaDuration,
				BusyCores: cost.SmallTaskCores,
			}},
		}, nil
	})
	return Step{Stage: StageFasta, Desc: pilot.TaskDescription{
		Name:  p.taskName(StageFasta),
		Cores: cost.SmallTaskCores,
		Work:  work,
		Tags:  p.tags(StageFasta),
	}}
}

// msaStep builds the CPU half of S4 in split mode: MSA/feature
// construction, hours of CPU with no GPU use.
func (p *Pipeline) msaStep() Step {
	residues := p.st.Len()
	cost := p.params.Cost
	work := pilot.WorkFunc(func(ctx *pilot.ExecContext) (pilot.Result, error) {
		d := cost.MSADuration(residues, ctx.Seed)
		return pilot.Result{
			Value: struct{}{},
			Phases: []pilot.Phase{{
				Name: "msa", Duration: d,
				BusyCores: cost.MSACores,
			}},
		}, nil
	})
	return Step{Stage: StageMSA, Desc: pilot.TaskDescription{
		Name:  p.taskName(StageMSA),
		Cores: cost.MSACores,
		Work:  work,
		Tags:  p.tags(StageMSA),
	}}
}

// foldStep builds S4's structure prediction for the current candidate. In
// split mode it is a pure GPU inference task; in monolithic mode it
// carries the MSA phase inside, holding the GPU idle while the CPU phase
// runs (the CONT-V utilization signature of Fig. 4).
func (p *Pipeline) foldStep() Step {
	cand := p.candidate()
	isComplex := p.st.IsComplex()
	cost := p.params.Cost
	residues := p.st.Len()
	nModels := p.params.Fold.NumModels
	split := p.params.SplitFold
	predictor := p.predictor

	work := pilot.WorkFunc(func(ctx *pilot.ExecContext) (pilot.Result, error) {
		pred := predictor.Predict(cand.Full, isComplex)
		var phases []pilot.Phase
		if !split {
			phases = append(phases, pilot.Phase{
				Name: "msa", Duration: cost.MSADuration(residues, ctx.Seed),
				BusyCores: cost.MSACores,
			})
		}
		phases = append(phases, pilot.Phase{
			Name: "inference", Duration: cost.InferDuration(residues, nModels, ctx.Seed),
			BusyCores: cost.InferCores, BusyGPUs: cost.InferGPUs,
		})
		return pilot.Result{Value: pred, Phases: phases}, nil
	})

	cores := cost.InferCores
	if !split && cost.MSACores > cores {
		cores = cost.MSACores
	}
	return Step{Stage: StageFold, Desc: pilot.TaskDescription{
		Name:  p.taskName(StageFold),
		Cores: cores,
		GPUs:  cost.InferGPUs,
		Work:  work,
		Tags:  p.tags(StageFold),
	}}
}

// metricsStep builds S5: gather the best model's quality metrics.
func (p *Pipeline) metricsStep(pred fold.Prediction) Step {
	cost := p.params.Cost
	work := pilot.WorkFunc(func(ctx *pilot.ExecContext) (pilot.Result, error) {
		return pilot.Result{
			Value: pred.Best().Metrics,
			Phases: []pilot.Phase{{
				Name: "scoring", Duration: cost.MetricsDuration,
				BusyCores: cost.SmallTaskCores,
			}},
		}, nil
	})
	return Step{Stage: StageMetrics, Desc: pilot.TaskDescription{
		Name:  p.taskName(StageMetrics),
		Cores: cost.SmallTaskCores,
		Work:  work,
		Tags:  p.tags(StageMetrics),
	}}
}

// StageOf maps a completed pilot task back to its pipeline stage using
// the tags attached at submission.
func StageOf(t *pilot.Task) (Stage, error) {
	name := t.Tag("stage")
	for s, n := range stageNames {
		if n == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("pipeline: task %s has unknown stage tag %q", t.ID, name)
}
