package impress

import (
	"fmt"
	"io"
	"sort"

	"impress/internal/campaign"
	"impress/internal/core"
	"impress/internal/report"
)

// ExperimentOutput is one regenerated table or figure: the rendered text
// plus the raw campaign results it came from (keyed by approach).
type ExperimentOutput struct {
	ID      string
	Title   string
	Text    string
	Results map[string]*Result
}

// WriteCSV emits the experiment's per-iteration metrics (and, for the
// utilization figures, the busy-resource series) as CSV.
func (o *ExperimentOutput) WriteCSV(w io.Writer) error {
	results := make([]*core.Result, 0, len(o.Results))
	for _, name := range sortedKeys(o.Results) {
		results = append(results, o.Results[name])
	}
	switch o.ID {
	case "fig4", "fig5":
		for _, r := range results {
			if err := report.SeriesCSV(w, r); err != nil {
				return err
			}
		}
		return nil
	default:
		iters := 0
		for _, r := range results {
			if n := r.Iterations(); n > iters {
				iters = n
			}
		}
		return report.IterationCSV(w, iters, results...)
	}
}

func sortedKeys(m map[string]*Result) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Experiment regenerates one of the paper's tables or figures.
type Experiment struct {
	// ID is the short handle used by the CLI ("table1", "fig2", ...).
	ID string
	// Title describes the experiment.
	Title string
	// Run executes the experiment at the given seed.
	Run func(seed uint64) (*ExperimentOutput, error)
}

// Experiments returns the paper's full evaluation harness, one entry per
// table and figure of Section III.
func Experiments() []Experiment { return ExperimentsWith(ScenarioParams{}) }

// ExperimentsWith returns the evaluation harness with every campaign's
// execution configured from p (campaign.Configure) — the ablation hook
// behind the impress-experiments -policy and fault flags, e.g. Table I
// under best-fit scheduling or a 10% task-fault rate. p.Targets sets
// Fig. 3's screen width (default 70, the paper's); the seed comes from
// each experiment's Run.
func ExperimentsWith(p ScenarioParams) []Experiment {
	if p.Targets <= 0 {
		p.Targets = 70
	}
	return []Experiment{
		{
			ID:    "table1",
			Title: "Table I: experimental setup and results for CONT-V and IM-RP",
			Run:   func(seed uint64) (*ExperimentOutput, error) { return tableIExperiment(seed, p) },
		},
		{
			ID:    "fig2",
			Title: "Fig. 2: per-iteration AlphaFold metrics, CONT-V vs IM-RP (4 PDZ-peptide structures)",
			Run:   func(seed uint64) (*ExperimentOutput, error) { return fig2Experiment(seed, p) },
		},
		{
			ID:    "fig3",
			Title: "Fig. 3: per-iteration AlphaFold metrics for the expanded IM-RP workflow (70 structures)",
			Run:   func(seed uint64) (*ExperimentOutput, error) { return fig3Experiment(seed, p) },
		},
		{
			ID:    "fig4",
			Title: "Fig. 4: CONT-V total GPU/CPU resource utilization and execution time",
			Run:   func(seed uint64) (*ExperimentOutput, error) { return fig4Experiment(seed, p) },
		},
		{
			ID:    "fig5",
			Title: "Fig. 5: IM-RP total GPU/CPU utilization, execution time and phase breakdown",
			Run:   func(seed uint64) (*ExperimentOutput, error) { return fig5Experiment(seed, p) },
		},
	}
}

// RunExperiments executes experiments on a bounded worker pool and
// returns their outputs (and errors) in input order. Experiments are
// independent campaign batches, so like campaigns they produce identical
// outputs at any worker count; the campaign engine underneath divides
// sampler parallelism across everything running in the process. A
// panicking experiment fails its own row without killing the batch.
// workers <= 0 uses GOMAXPROCS.
func RunExperiments(exps []Experiment, seed uint64, workers int) ([]*ExperimentOutput, []error) {
	outs := make([]*ExperimentOutput, len(exps))
	errs := make([]error, len(exps))
	campaign.RunIndexed(len(exps), workers, func(i int) {
		outs[i], errs[i] = runExperiment(exps[i], seed)
	})
	return outs, errs
}

func runExperiment(exp Experiment, seed uint64) (out *ExperimentOutput, err error) {
	defer func() {
		if r := recover(); r != nil {
			out, err = nil, fmt.Errorf("experiment %s panicked: %v", exp.ID, r)
		}
	}()
	return exp.Run(seed)
}

// pairCampaign runs the pair scenario — CONT-V and IM-RP on the paper's
// 4-PDZ workload — through the campaign engine, one worker per protocol.
// Campaigns are hermetic, so the concurrent pair is bit-identical to
// running the two in sequence.
func pairCampaign(seed uint64, p ScenarioParams) (ctrl, adpt *Result, err error) {
	p.Seed = seed
	pair, err := campaign.Build("pair", p)
	if err != nil {
		return nil, nil, err
	}
	outs := campaign.Run(pair, 2)
	for _, o := range outs {
		if o.Err != nil {
			return nil, nil, o.Err
		}
	}
	return outs[0].Result, outs[1].Result, nil
}

// runSingle configures one campaign from p and executes it through the
// engine.
func runSingle(c campaign.Campaign, p ScenarioParams) (*Result, error) {
	cfg, err := campaign.Configure(c.Config, p)
	if err != nil {
		return nil, err
	}
	c.Config = cfg
	out := campaign.Run([]campaign.Campaign{c}, 1)[0]
	return out.Result, out.Err
}

// TableIExperiment regenerates Table I: CONT-V vs IM-RP on four PDZ
// domains against the α-synuclein 10-mer, reporting pipeline counts,
// trajectories, utilization, time, and metric net deltas.
func TableIExperiment(seed uint64) (*ExperimentOutput, error) {
	return tableIExperiment(seed, ScenarioParams{})
}

func tableIExperiment(seed uint64, p ScenarioParams) (*ExperimentOutput, error) {
	ctrl, adpt, err := pairCampaign(seed, p)
	if err != nil {
		return nil, err
	}
	text := report.TableI(ctrl, adpt) +
		"\nPL = pipeline. 'Time (h)' is aggregate task execution time (the paper's" +
		"\ndefinition: total time taken by all tasks on the compute resources);" +
		"\nmakespan is reported alongside. Sub-pipelines each run one refinement cycle.\n" +
		"\n" + report.Summary(ctrl) + "\n" + report.Summary(adpt) + "\n"
	return &ExperimentOutput{
		ID: "table1", Title: "Table I", Text: text,
		Results: map[string]*Result{"CONT-V": ctrl, "IM-RP": adpt},
	}, nil
}

// Fig2Experiment regenerates Fig. 2: median pLDDT, pTM and inter-chain
// pAE per design iteration for CONT-V and IM-RP over the four named PDZ
// targets, with half-σ error bars.
func Fig2Experiment(seed uint64) (*ExperimentOutput, error) {
	return fig2Experiment(seed, ScenarioParams{})
}

func fig2Experiment(seed uint64, p ScenarioParams) (*ExperimentOutput, error) {
	ctrl, adpt, err := pairCampaign(seed, p)
	if err != nil {
		return nil, err
	}
	iters := ctrl.Iterations()
	if n := adpt.Iterations(); n > iters {
		iters = n
	}
	text := report.IterationFigure(
		"Fig. 2: AlphaFold metrics per iteration, CONT-V vs IM-RP (4 PDZ-peptide structures)",
		iters, ctrl, adpt)
	return &ExperimentOutput{
		ID: "fig2", Title: "Fig. 2", Text: text,
		Results: map[string]*Result{"CONT-V": ctrl, "IM-RP": adpt},
	}, nil
}

// Fig3Experiment regenerates Fig. 3: the expanded IM-RP workflow over n
// PDB-mined PDZ–peptide complexes (paper: 70) with the α-synuclein
// 4-mer, four design cycles, and adaptivity not enforced in the final
// cycle — reproducing the final-iteration quality drop.
func Fig3Experiment(seed uint64, n int) (*ExperimentOutput, error) {
	return fig3Experiment(seed, ScenarioParams{Targets: n})
}

func fig3Experiment(seed uint64, p ScenarioParams) (*ExperimentOutput, error) {
	n := p.Targets
	screen, err := PDZScreen(seed, n)
	if err != nil {
		return nil, err
	}
	cfg := AdaptiveConfig(seed)
	cfg.Pipeline.FinalCycleAdaptive = false
	res, err := runSingle(campaign.Campaign{
		Name: fmt.Sprintf("fig3/screen%d/seed%d", n, seed), Seed: seed, Targets: screen, Config: cfg,
	}, p)
	if err != nil {
		return nil, err
	}
	text := report.IterationFigure(
		fmt.Sprintf("Fig. 3: AlphaFold metrics per iteration, expanded IM-RP workflow (%d structures)", n),
		res.Iterations(), res) +
		fmt.Sprintf("\n%s\n(adaptivity disabled in the final cycle; %d sub-pipelines, %d trajectories, %d early-terminated pipelines)\n",
			report.Summary(res), res.SubPipelines, res.TrajectoryCount(), res.EarlyTerminated)
	return &ExperimentOutput{
		ID: "fig3", Title: "Fig. 3", Text: text,
		Results: map[string]*Result{"IM-RP": res},
	}, nil
}

// Fig4Experiment regenerates Fig. 4: CONT-V's CPU/GPU utilization time
// series and execution time on the Amarel node.
func Fig4Experiment(seed uint64) (*ExperimentOutput, error) {
	return fig4Experiment(seed, ScenarioParams{})
}

func fig4Experiment(seed uint64, p ScenarioParams) (*ExperimentOutput, error) {
	return utilizationExperiment(seed, p, "fig4", "Fig. 4", "Fig. 4: CONT-V total GPU/CPU resource utilization and execution time", true)
}

// Fig5Experiment regenerates Fig. 5: IM-RP's CPU/GPU utilization time
// series, execution time, and the Bootstrap / Exec setup / Running phase
// breakdown.
func Fig5Experiment(seed uint64) (*ExperimentOutput, error) {
	return fig5Experiment(seed, ScenarioParams{})
}

func fig5Experiment(seed uint64, p ScenarioParams) (*ExperimentOutput, error) {
	return utilizationExperiment(seed, p, "fig5", "Fig. 5", "Fig. 5: IM-RP total GPU/CPU utilization and execution time", false)
}

// utilizationExperiment runs one protocol — CONT-V when control is set,
// IM-RP otherwise — over the four named PDZ targets and renders its
// utilization figure.
func utilizationExperiment(seed uint64, p ScenarioParams, id, figure, title string, control bool) (*ExperimentOutput, error) {
	targets, err := NamedPDZTargets(seed)
	if err != nil {
		return nil, err
	}
	cfg, approach := AdaptiveConfig(seed), "IM-RP"
	if control {
		cfg, approach = ControlConfig(seed), "CONT-V"
	}
	res, err := runSingle(campaign.Campaign{
		Name: fmt.Sprintf("%s/seed%d", id, seed), Seed: seed, Targets: targets, Config: cfg, Control: control,
	}, p)
	if err != nil {
		return nil, err
	}
	return &ExperimentOutput{
		ID: id, Title: figure, Text: report.UtilizationFigure(title, res),
		Results: map[string]*Result{approach: res},
	}, nil
}
