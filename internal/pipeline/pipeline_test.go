package pipeline

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"impress/internal/fold"
	"impress/internal/ga"
	"impress/internal/landscape"
	"impress/internal/mpnn"
	"impress/internal/pilot"
	"impress/internal/protein"
	"impress/internal/workload"
)

func testTarget(t *testing.T, seed uint64) *workload.Target {
	t.Helper()
	tg, err := workload.NewTarget(seed, "PDZ-T", 60, workload.AlphaSynucleinTail10, workload.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return tg
}

// runStep executes a step's payload synchronously, outside the pilot
// runtime, and returns its value.
func runStep(t *testing.T, step Step) any {
	t.Helper()
	res, err := step.Desc.Work.Run(&pilot.ExecContext{
		TaskID: "test", Seed: 99,
		Cores: step.Desc.Cores, GPUs: step.Desc.GPUs,
	})
	if err != nil {
		t.Fatalf("step %v failed: %v", step.Stage, err)
	}
	if res.TotalDuration() <= 0 {
		t.Fatalf("step %v has non-positive duration", step.Stage)
	}
	return res.Value
}

// drive runs a pipeline to completion, returning the visited stage
// sequence.
func drive(t *testing.T, p *Pipeline) ([]Stage, Outcome) {
	t.Helper()
	var stages []Stage
	out := p.Start()
	for steps := out.Steps; len(steps) > 0; {
		step := steps[0]
		stages = append(stages, step.Stage)
		value := runStep(t, step)
		out = p.HandleResult(step.Stage, value)
		steps = out.Steps
		if len(stages) > 500 {
			t.Fatal("pipeline did not terminate")
		}
	}
	if !p.Finished() {
		t.Fatal("pipeline stopped emitting steps without finishing")
	}
	return stages, out
}

func imrpTestParams(seed uint64) Params {
	p := IMRPParams()
	p.Seed = seed
	p.MPNN.Sweeps = 2 // keep unit tests fast
	return p
}

func TestIMRPStageSequence(t *testing.T) {
	tg := testTarget(t, 1)
	p, err := New("pl.0001", tg, nil, imrpTestParams(1))
	if err != nil {
		t.Fatal(err)
	}
	stages, _ := drive(t, p)
	// Cycle structure: mpnn, rank, fasta, [msa], fold{1+retries}, metrics...
	if stages[0] != StageMPNN || stages[1] != StageRank || stages[2] != StageFasta || stages[3] != StageMSA {
		t.Fatalf("cycle-1 prefix = %v", stages[:4])
	}
	// MSA must appear exactly once per cycle (ReuseMSA=false), i.e. as
	// many times as accepted cycles that began.
	msaCount := 0
	for _, s := range stages {
		if s == StageMSA {
			msaCount++
		}
	}
	mpnnCount := 0
	for _, s := range stages {
		if s == StageMPNN {
			mpnnCount++
		}
	}
	if msaCount != mpnnCount {
		t.Fatalf("MSA runs (%d) != cycles started (%d) with ReuseMSA=false", msaCount, mpnnCount)
	}
}

func TestReuseMSARunsOnce(t *testing.T) {
	tg := testTarget(t, 2)
	params := imrpTestParams(2)
	params.ReuseMSA = true
	p, err := New("pl.0001", tg, nil, params)
	if err != nil {
		t.Fatal(err)
	}
	stages, _ := drive(t, p)
	msaCount := 0
	for _, s := range stages {
		if s == StageMSA {
			msaCount++
		}
	}
	if msaCount != 1 {
		t.Fatalf("MSA ran %d times with ReuseMSA=true, want 1", msaCount)
	}
}

func TestControlRunsAllCyclesMonolithically(t *testing.T) {
	tg := testTarget(t, 3)
	params := ControlParams()
	params.Seed = 3
	params.MPNN.Sweeps = 2
	p, err := New("pl.ctrl", tg, nil, params)
	if err != nil {
		t.Fatal(err)
	}
	stages, last := drive(t, p)
	for _, s := range stages {
		if s == StageMSA {
			t.Fatal("control pipeline emitted a split MSA stage")
		}
	}
	trajs := p.Trajectories()
	if len(trajs) != 4 {
		t.Fatalf("control produced %d trajectories, want 4", len(trajs))
	}
	for i, tr := range trajs {
		if !tr.Accepted {
			t.Fatalf("control trajectory %d not accepted (no pruning allowed)", i)
		}
		if tr.Evaluations != 1 {
			t.Fatalf("control trajectory %d used %d evaluations (no retries allowed)", i, tr.Evaluations)
		}
		if tr.Cycle != i+1 || tr.Generation != i+1 {
			t.Fatalf("trajectory %d cycle/gen = %d/%d", i, tr.Cycle, tr.Generation)
		}
	}
	if last.Terminated {
		t.Fatal("control pipeline terminated early")
	}
}

func TestControlFoldTaskHasMSAPhase(t *testing.T) {
	tg := testTarget(t, 4)
	params := ControlParams()
	params.Seed = 4
	params.MPNN.Sweeps = 2
	p, _ := New("pl.ctrl", tg, nil, params)
	out := p.Start()
	// Walk to the fold step.
	var foldStep *Step
	for len(out.Steps) > 0 {
		step := out.Steps[0]
		if step.Stage == StageFold {
			foldStep = &step
			break
		}
		out = p.HandleResult(step.Stage, runStep(t, step))
	}
	if foldStep == nil {
		t.Fatal("no fold step reached")
	}
	res, err := foldStep.Desc.Work.Run(&pilot.ExecContext{TaskID: "x", Seed: 1, Cores: foldStep.Desc.Cores, GPUs: foldStep.Desc.GPUs})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Phases) != 2 || res.Phases[0].Name != "msa" || res.Phases[1].Name != "inference" {
		t.Fatalf("monolithic fold phases = %+v", res.Phases)
	}
	if res.Phases[0].BusyGPUs != 0 || res.Phases[1].BusyGPUs == 0 {
		t.Fatal("GPU busy profile wrong: MSA phase must idle the GPU")
	}
	if res.Phases[0].Duration <= res.Phases[1].Duration {
		t.Fatal("MSA phase should dominate the monolithic task")
	}
}

func TestAdaptiveAcceptedQualityMonotone(t *testing.T) {
	tg := testTarget(t, 5)
	p, _ := New("pl.0001", tg, nil, imrpTestParams(5))
	drive(t, p)
	prev := -1.0
	for _, tr := range p.Trajectories() {
		if !tr.Accepted {
			continue
		}
		q := tr.Metrics.Quality()
		if q < prev {
			t.Fatalf("accepted quality declined: %v -> %v", prev, q)
		}
		prev = q
	}
}

func TestAdaptiveImprovesOverStart(t *testing.T) {
	// Across several targets, the final accepted design should beat the
	// native starting metrics in the majority of cases.
	wins, total := 0, 0
	for seed := uint64(10); seed < 16; seed++ {
		tg := testTarget(t, seed)
		p, _ := New("pl", tg, nil, imrpTestParams(seed))
		drive(t, p)
		if p.best == nil {
			continue
		}
		total++
		if p.best.BetterThan(tg.StartingMetrics()) {
			wins++
		}
	}
	if total == 0 {
		t.Fatal("no pipelines produced accepted designs")
	}
	if wins*2 <= total {
		t.Fatalf("adaptive pipeline beat start only %d/%d times", wins, total)
	}
}

func TestGenerationTracksAcceptedCycles(t *testing.T) {
	tg := testTarget(t, 7)
	p, _ := New("pl", tg, nil, imrpTestParams(7))
	drive(t, p)
	gen := 0
	for _, tr := range p.Trajectories() {
		if tr.Accepted {
			gen++
			if tr.Generation != gen {
				t.Fatalf("accepted trajectory generation %d, want %d", tr.Generation, gen)
			}
			if tr.Result == nil || tr.Result.Generation != gen {
				t.Fatalf("result structure generation wrong: %+v", tr.Result)
			}
			if tr.Input == nil || tr.Input.Generation != gen-1 {
				t.Fatalf("input structure generation wrong")
			}
		}
	}
	if p.Structure().Generation != gen {
		t.Fatalf("final structure generation %d, want %d", p.Structure().Generation, gen)
	}
}

// Synthetic driving: feed HandleResult directly to exercise Stage-6 edge
// cases deterministically.
func syntheticPipeline(t *testing.T, maxRetries int) *Pipeline {
	t.Helper()
	tg := testTarget(t, 20)
	params := imrpTestParams(20)
	params.MaxRetries = maxRetries
	p, err := New("pl.syn", tg, nil, params)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func syntheticDesigns(tg *protein.Structure, n int) []mpnn.Design {
	out := make([]mpnn.Design, n)
	for i := range out {
		full := tg.FullSequence()
		out[i] = mpnn.Design{
			Full: full, Receptor: full[:len(tg.Receptor.Seq)].Clone(),
			LogLikelihood: -float64(i), Index: i,
		}
	}
	return out
}

func metricsQ(q float64) landscape.Metrics {
	// Monotone family: higher q → better metrics.
	return landscape.Metrics{PLDDT: 50 + 40*q, PTM: 0.2 + 0.7*q, IPAE: 25 - 15*q}
}

func feedCycleToDecision(t *testing.T, p *Pipeline, ds []mpnn.Design) {
	t.Helper()
	out := p.HandleResult(StageMPNN, ds)
	if out.Steps[0].Stage != StageRank {
		t.Fatal("expected rank step")
	}
	order := make([]int, len(ds))
	for i := range order {
		order[i] = i
	}
	out = p.HandleResult(StageRank, order)
	if out.Steps[0].Stage != StageFasta {
		t.Fatal("expected fasta step")
	}
	out = p.HandleResult(StageFasta, "fasta")
	if out.Steps[0].Stage == StageMSA {
		out = p.HandleResult(StageMSA, struct{}{})
	}
	if out.Steps[0].Stage != StageFold {
		t.Fatalf("expected fold step, got %v", out.Steps[0].Stage)
	}
}

func TestRetryThenTerminate(t *testing.T) {
	p := syntheticPipeline(t, 3)
	p.Start()
	ds := syntheticDesigns(p.Structure(), 10)

	// Cycle 1: accept a strong result.
	feedCycleToDecision(t, p, ds)
	p.HandleResult(StageFold, fold.Prediction{Models: []fold.ModelOut{{Metrics: metricsQ(0.9)}}})
	out := p.HandleResult(StageMetrics, metricsQ(0.9))
	if out.Cycle == nil || !out.Cycle.Accepted {
		t.Fatal("strong first cycle not accepted")
	}

	// Cycle 2: every candidate is worse; expect MaxRetries retries then
	// termination.
	feedCycleToDecision(t, p, ds)
	retries := 0
	for {
		p.HandleResult(StageFold, fold.Prediction{Models: []fold.ModelOut{{Metrics: metricsQ(0.1)}}})
		out = p.HandleResult(StageMetrics, metricsQ(0.1))
		if out.Finished {
			break
		}
		if len(out.Steps) != 1 || out.Steps[0].Stage != StageFold {
			t.Fatalf("expected fold retry, got %+v", out)
		}
		retries++
		if retries > 20 {
			t.Fatal("runaway retries")
		}
	}
	if retries != 3 {
		t.Fatalf("got %d retries, want MaxRetries=3", retries)
	}
	if !out.Terminated {
		t.Fatal("pipeline not terminated after retry exhaustion")
	}
	if out.Cycle == nil || out.Cycle.Accepted {
		t.Fatal("terminal declined cycle should be recorded unaccepted")
	}
	if out.Cycle.Evaluations != 4 {
		t.Fatalf("terminal cycle evaluations = %d, want 4", out.Cycle.Evaluations)
	}
}

func TestRetrySucceedsMidway(t *testing.T) {
	p := syntheticPipeline(t, 10)
	p.Start()
	ds := syntheticDesigns(p.Structure(), 10)
	feedCycleToDecision(t, p, ds)
	p.HandleResult(StageFold, fold.Prediction{Models: []fold.ModelOut{{Metrics: metricsQ(0.5)}}})
	out := p.HandleResult(StageMetrics, metricsQ(0.5)) // cycle 1 accepted
	if out.Cycle == nil {
		t.Fatal("cycle 1 not concluded")
	}
	feedCycleToDecision(t, p, ds)
	// First two candidates decline, third improves.
	for i := 0; i < 2; i++ {
		p.HandleResult(StageFold, fold.Prediction{Models: []fold.ModelOut{{Metrics: metricsQ(0.2)}}})
		out = p.HandleResult(StageMetrics, metricsQ(0.2))
		if out.Cycle != nil {
			t.Fatal("declined attempt concluded the cycle")
		}
	}
	p.HandleResult(StageFold, fold.Prediction{Models: []fold.ModelOut{{Metrics: metricsQ(0.8)}}})
	out = p.HandleResult(StageMetrics, metricsQ(0.8))
	if out.Cycle == nil || !out.Cycle.Accepted {
		t.Fatal("improving retry not accepted")
	}
	if out.Cycle.CandidateRank != 2 || out.Cycle.Evaluations != 3 {
		t.Fatalf("cycle bookkeeping: rank %d evals %d", out.Cycle.CandidateRank, out.Cycle.Evaluations)
	}
}

func TestNonAdaptiveFinalCycleAcceptsDecline(t *testing.T) {
	tg := testTarget(t, 21)
	params := imrpTestParams(21)
	params.Cycles = 2
	params.FinalCycleAdaptive = false
	p, _ := New("pl.fc", tg, nil, params)
	p.Start()
	ds := syntheticDesigns(p.Structure(), 5)
	feedCycleToDecision(t, p, ds)
	p.HandleResult(StageFold, fold.Prediction{Models: []fold.ModelOut{{Metrics: metricsQ(0.9)}}})
	p.HandleResult(StageMetrics, metricsQ(0.9))
	// Final cycle: a much worse result must still be accepted.
	feedCycleToDecision(t, p, ds)
	p.HandleResult(StageFold, fold.Prediction{Models: []fold.ModelOut{{Metrics: metricsQ(0.1)}}})
	out := p.HandleResult(StageMetrics, metricsQ(0.1))
	if out.Cycle == nil || !out.Cycle.Accepted {
		t.Fatal("non-adaptive final cycle rejected a decline")
	}
	if !out.Finished || out.Terminated {
		t.Fatal("pipeline should finish normally")
	}
}

func TestParamsValidation(t *testing.T) {
	tg := testTarget(t, 22)
	bad := IMRPParams()
	bad.Cycles = 0
	if _, err := New("x", tg, nil, bad); err == nil {
		t.Error("zero cycles accepted")
	}
	bad = IMRPParams()
	bad.MaxRetries = -1
	if _, err := New("x", tg, nil, bad); err == nil {
		t.Error("negative retries accepted")
	}
	bad = IMRPParams()
	bad.MPNN.NumSequences = 0
	if _, err := New("x", tg, nil, bad); err == nil {
		t.Error("bad MPNN config accepted")
	}
	if _, err := New("x", nil, nil, IMRPParams()); err == nil {
		t.Error("nil target accepted")
	}
}

func TestStartTwicePanics(t *testing.T) {
	tg := testTarget(t, 23)
	p, _ := New("x", tg, nil, imrpTestParams(23))
	p.Start()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	p.Start()
}

func TestStageOfRoundTrip(t *testing.T) {
	for _, s := range []Stage{StageMPNN, StageRank, StageFasta, StageMSA, StageFold, StageMetrics} {
		task := &pilot.Task{Description: pilot.TaskDescription{
			Tags: map[string]string{"stage": s.String()},
		}}
		got, err := StageOf(task)
		if err != nil || got != s {
			t.Fatalf("StageOf(%v) = %v, %v", s, got, err)
		}
	}
	if _, err := StageOf(&pilot.Task{Description: pilot.TaskDescription{}}); err == nil {
		t.Fatal("missing stage tag accepted")
	}
}

func TestTaskTagsCarryRoutingInfo(t *testing.T) {
	tg := testTarget(t, 24)
	p, _ := New("pl.0042", tg, nil, imrpTestParams(24))
	out := p.Start()
	tags := out.Steps[0].Desc.Tags
	if tags["pipeline"] != "pl.0042" || tags["stage"] != "mpnn" || tags["target"] != "PDZ-T" || tags["cycle"] != "1" {
		t.Fatalf("tags = %v", tags)
	}
}

func TestFastaPayloadParses(t *testing.T) {
	tg := testTarget(t, 25)
	p, _ := New("pl", tg, nil, imrpTestParams(25))
	out := p.Start()
	out = p.HandleResult(StageMPNN, runStep(t, out.Steps[0]))
	out = p.HandleResult(StageRank, runStep(t, out.Steps[0]))
	fastaText := runStep(t, out.Steps[0]).(string)
	records := strings.Split(strings.TrimPrefix(fastaText, ">"), "\n>")
	if !strings.HasPrefix(fastaText, ">") || len(records) != p.Params().MPNN.NumSequences {
		t.Fatalf("fasta has %d records, want %d", len(records), p.Params().MPNN.NumSequences)
	}
	// A record is its header line, then the sequence wrapped over lines;
	// AlphaFold-multimer joins the chains with ':'.
	lines := strings.Split(strings.TrimSpace(records[0]), "\n")
	chains := strings.Split(strings.Join(lines[1:], ""), ":")
	if len(chains) != 2 || chains[1] != workload.AlphaSynucleinTail10 {
		t.Fatalf("fasta record chains wrong: %v", chains)
	}
}

func TestSelectionPolicyAffectsChoice(t *testing.T) {
	// With the oracle policy the first accepted cycle should be at least
	// as good as with random selection, averaged over seeds.
	better := 0
	const trials = 5
	for seed := uint64(30); seed < 30+trials; seed++ {
		tg := testTarget(t, seed)
		first := func(policy ga.SelectionPolicy) float64 {
			params := imrpTestParams(seed)
			params.Selection = policy
			params.Cycles = 1
			p, _ := New(fmt.Sprintf("pl.%d", policy), tg, nil, params)
			drive(t, p)
			trs := p.Trajectories()
			if len(trs) == 0 {
				t.Fatal("no trajectory")
			}
			return trs[0].Metrics.Quality()
		}
		if first(ga.SelectOracle) >= first(ga.SelectRandom) {
			better++
		}
	}
	if better < trials-1 {
		t.Fatalf("oracle selection beat random only %d/%d times", better, trials)
	}
}

func TestAggregateWorkPositive(t *testing.T) {
	p := IMRPParams()
	if p.AggregateWork(100) <= 0 {
		t.Fatal("AggregateWork not positive")
	}
	if p.AggregateWork(200) <= p.AggregateWork(50) {
		t.Fatal("AggregateWork not increasing in residues")
	}
}

// AggregateWork estimates one cycle's task time from the cost model. No
// campaign calls it; TestAggregateWorkPositive pins the estimate.
func (p Params) AggregateWork(residues int) time.Duration {
	c := p.Cost
	total := c.MPNNBase + time.Duration(p.MPNN.NumSequences)*c.MPNNPerSeq +
		c.RankDuration + c.FastaDuration + c.MetricsDuration +
		c.MSABase + time.Duration(residues)*c.MSAPerResidue +
		c.InferBase + time.Duration(p.Fold.NumModels)*c.InferPerModel +
		time.Duration(residues*p.Fold.NumModels)*c.InferPerResidue
	return total
}

// Params returns the pipeline's configuration.
func (p *Pipeline) Params() Params { return p.params }

// Structure returns the current (latest accepted) structure.
func (p *Pipeline) Structure() *protein.Structure { return p.st }

// Trajectories returns the concluded design cycles so far.
func (p *Pipeline) Trajectories() []Trajectory {
	return append([]Trajectory(nil), p.trajectories...)
}
