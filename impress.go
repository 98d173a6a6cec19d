// Package impress is the public API of the IMPRESS reproduction: adaptive
// protein design protocols (IM-RP) and their supporting middleware, per
// "Adaptive Protein Design Protocols and Middleware" (IPPS 2025).
//
// The package couples a ProteinMPNN-style sequence generator and an
// AlphaFold-style structure predictor through an adaptive pipelines
// coordinator executing on a RADICAL-Pilot-style runtime over a simulated
// HPC resource. Campaigns replay deterministically in virtual time, so
// the paper's evaluation (Table I, Figures 2–5) regenerates in seconds.
//
// Quick start:
//
//	targets, _ := impress.NamedPDZTargets(42)
//	result, _ := impress.RunAdaptive(targets, impress.AdaptiveConfig(42))
//	fmt.Println(impress.Summary(result))
//
// See the examples directory for complete programs. The paper's
// evaluation is a set of registered scenarios, table1 and fig2 to fig5:
// build one with BuildScenario, run it with RunCampaigns, and render it
// with the scenario's Report and ReportCSV.
package impress

import (
	"io"

	"impress/internal/campaign"
	"impress/internal/cluster"
	"impress/internal/core"
	"impress/internal/costmodel"
	"impress/internal/fault"
	"impress/internal/fold"
	"impress/internal/ga"
	"impress/internal/landscape"
	"impress/internal/mpnn"
	"impress/internal/pipeline"
	"impress/internal/report"
	"impress/internal/telemetry"
	"impress/internal/tenancy"
	"impress/internal/workload"
)

// Core domain types, aliased from the implementation packages so library
// users work with one import path.
type (
	// Target is one design problem: a starting receptor–peptide complex
	// plus its hidden fitness landscape.
	Target = workload.Target
	// WorkloadConfig tunes synthetic target generation.
	WorkloadConfig = workload.Config
	// Metrics are AlphaFold confidence/error measures (pLDDT, pTM,
	// inter-chain pAE).
	Metrics = landscape.Metrics
	// Result is a completed campaign's full record.
	Result = core.Result
	// Config describes a campaign (protocol parameters, machine,
	// sub-pipeline policy, concurrency).
	Config = core.Config
	// SubPolicy governs dynamic sub-pipeline generation.
	SubPolicy = core.SubPolicy
	// PipelineParams configures the per-pipeline protocol (cycles,
	// retries, selection policy, fold task splitting).
	PipelineParams = pipeline.Params
	// Trajectory is one concluded design cycle.
	Trajectory = pipeline.Trajectory
	// MPNNConfig configures the sequence-generation stage.
	MPNNConfig = mpnn.Config
	// FoldConfig configures the structure-prediction stage.
	FoldConfig = fold.Config
	// CostParams holds the calibrated task duration/resource models.
	CostParams = costmodel.Params
	// MachineSpec describes the HPC resource.
	MachineSpec = cluster.Spec
	// SelectionPolicy orders candidate sequences for evaluation.
	SelectionPolicy = ga.SelectionPolicy
	// PilotSpec declares one pilot partition of a multi-pilot campaign.
	PilotSpec = core.PilotSpec
	// ResourceClass buckets tasks by hardware (CPU vs GPU) for placement.
	ResourceClass = core.ResourceClass
	// Campaign is one unit of work for the campaign engine.
	Campaign = campaign.Campaign
	// CampaignOutcome is one campaign's result or failure.
	CampaignOutcome = campaign.Outcome
	// CampaignEngine executes campaigns on a bounded worker pool.
	CampaignEngine = campaign.Engine
	// Scenario declares a family of campaigns as data.
	Scenario = campaign.Scenario
	// ScenarioParams parameterizes scenario construction.
	ScenarioParams = campaign.Params
	// FaultSpec declares a campaign's failure models (per-task faults,
	// node MTBF crashes, walltime expiry, correlated domain failures);
	// the zero value injects nothing. Assign to Config.Fault or
	// ScenarioParams.Fault.
	FaultSpec = fault.Spec
	// DomainSpec declares the correlated failure-domain models
	// (FaultSpec.Domains): whole-domain outages, same-domain crash
	// cascades, and scheduled maintenance windows.
	DomainSpec = fault.DomainSpec
	// Maintenance is one scheduled maintenance window over a failure
	// domain (DomainSpec.Maintenance).
	Maintenance = fault.Maintenance
	// FaultStats is a campaign's fault-injection and recovery record
	// (Result.Faults; nil without failure models).
	FaultStats = core.FaultStats
	// CriticalPath is the makespan critical-path analysis of a campaign
	// (Result.CriticalPath): the attempt chain whose gap + wait + setup +
	// run sums to the makespan, plus per-stage slack.
	CriticalPath = telemetry.CriticalPath
	// TelemetryData is a campaign's observability record
	// (Result.Telemetry; nil unless Config.Telemetry was set).
	TelemetryData = telemetry.Data
	// TenancySpec declares a multi-tenant service: many campaigns
	// arriving on one shared cluster under admission control. Assign to
	// Campaign.Tenancy.
	TenancySpec = tenancy.Spec
	// TenancyConfig is the service-level half of a TenancySpec (shared
	// pool, arrival process, admission and reclaim policies).
	TenancyConfig = tenancy.Config
	// TenantSpec declares one arriving tenant campaign of a
	// multi-tenant service.
	TenantSpec = tenancy.TenantSpec
	// TenantStat is one tenant's admission and fairness record in a
	// service result (Result.Tenants).
	TenantStat = core.TenantStat
)

// Resource classes for PilotSpec.Serves.
const (
	ClassCPU = core.ClassCPU
	ClassGPU = core.ClassGPU
)

// Selection policies for PipelineParams.Selection.
const (
	// SelectBestLogLikelihood tries candidates in MPNN log-likelihood
	// order (IM-RP).
	SelectBestLogLikelihood = ga.SelectBestLogLikelihood
	// SelectRandom picks candidates in random order (CONT-V).
	SelectRandom = ga.SelectRandom
	// SelectOracle ranks by true landscape quality (ablation upper
	// bound).
	SelectOracle = ga.SelectOracle
)

// α-synuclein C-terminal peptides, the paper's design targets.
const (
	AlphaSynucleinTail10 = workload.AlphaSynucleinTail10
	AlphaSynucleinTail4  = workload.AlphaSynucleinTail4
)

// Metric extractors for Result.IterationSummary / NetDelta.
var (
	PLDDT = core.PLDDTOf
	PTM   = core.PTMOf
	IPAE  = core.IPAEOf
)

// NamedPDZTargets builds the paper's four PDZ domains (NHERF3, HTRA1,
// SCRIB, SHANK1) in complex with the α-synuclein 10-mer.
func NamedPDZTargets(seed uint64) ([]*Target, error) {
	return workload.NamedTargets(seed, workload.DefaultConfig())
}

// PDZScreen builds the expanded workload of n synthetic PDB-mined
// PDZ–peptide complexes bound to the α-synuclein 4-mer (the paper uses
// n=70).
func PDZScreen(seed uint64, n int) ([]*Target, error) {
	return workload.MinedScreen(seed, n, workload.DefaultConfig())
}

// NewTarget synthesizes a custom design problem.
func NewTarget(seed uint64, name string, receptorLen int, peptide string) (*Target, error) {
	return workload.NewTarget(seed, name, receptorLen, peptide, workload.DefaultConfig())
}

// ProteaseTarget builds a monomeric protease-like target for the paper's
// future-work protocol, returning the catalytic triad positions that the
// MPNN stage must hold fixed.
func ProteaseTarget(seed uint64, name string, receptorLen int) (*Target, []int, error) {
	return workload.ProteaseTarget(seed, name, receptorLen, workload.DefaultConfig())
}

// AdaptiveConfig returns the IM-RP campaign configuration on the Amarel
// node: adaptive selection and pruning, split AlphaFold tasks,
// asynchronous pipeline execution, dynamic sub-pipelines.
func AdaptiveConfig(seed uint64) Config { return core.AdaptiveConfig(seed) }

// ControlConfig returns the CONT-V baseline configuration: the same
// stages, random selection, no comparisons or pruning, monolithic
// AlphaFold tasks, strictly sequential execution.
func ControlConfig(seed uint64) Config { return core.ControlConfig(seed) }

// RunAdaptive executes an IM-RP campaign over targets.
func RunAdaptive(targets []*Target, cfg Config) (*Result, error) {
	return core.RunAdaptive(targets, cfg)
}

// RunControl executes a CONT-V campaign over targets.
func RunControl(targets []*Target, cfg Config) (*Result, error) {
	return core.RunControl(targets, cfg)
}

// RunCampaigns executes campaigns on a bounded worker pool and returns
// outcomes in input order. Campaigns are hermetically seeded, so outcomes
// are bit-identical regardless of worker count; per-campaign failures
// never discard the rest of a batch.
func RunCampaigns(campaigns []Campaign, workers int) []CampaignOutcome {
	return campaign.Run(campaigns, workers)
}

// BuildScenario constructs the campaigns of a named scenario. The
// README's scenario example calls it; the command and examples do not.
func BuildScenario(name string, p ScenarioParams) ([]Campaign, error) {
	return campaign.Build(name, p)
}

// Summary renders a one-paragraph textual summary of a campaign result.
func Summary(r *Result) string { return report.Summary(r) }

// CriticalPathReport renders a campaign's critical path — the segment
// chain accounting for the whole makespan — and its per-stage slack
// table.
func CriticalPathReport(r *Result) string { return report.CriticalPath(r) }

// WriteChromeTrace writes the results' timelines in Chrome Trace Event
// Format (view in Perfetto or chrome://tracing): task spans and per-node
// run slices per pilot, queue-depth and gauge counters, and instant
// markers for faults, transfers, and steering decisions. labels names
// each result's campaign; a nil labels falls back to each result's
// approach.
func WriteChromeTrace(w io.Writer, results []*Result, labels []string) error {
	cts := make([]telemetry.CampaignTrace, 0, len(results))
	for i, r := range results {
		if r == nil {
			continue
		}
		label := r.Approach
		if i < len(labels) {
			label = labels[i]
		}
		cts = append(cts, r.CampaignTrace(label))
	}
	return telemetry.WriteChromeTrace(w, cts)
}

// ValidateChromeTrace checks that data parses as Chrome Trace Event
// Format with balanced, properly nested spans. The README names it as
// the check for an exported trace; the command and examples do not call
// it.
func ValidateChromeTrace(data []byte) error { return telemetry.ValidateChromeTrace(data) }
