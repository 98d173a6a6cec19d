package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"time"

	"impress/internal/costmodel"
	"impress/internal/xrand"
)

// stageMixJSON is the IM-RP stage mix the taskbag replays: task shapes and
// running-phase durations per pipeline stage, as recorded from a
// mega-screen run's task records (regenerate with --record-stagemix).
//
//go:embed stagemix.json
var stageMixJSON []byte

// stageMix is the recorded task population of one campaign.
type stageMix struct {
	Source string      `json:"source"`
	Tasks  int         `json:"tasks"`
	Stages []stageKind `json:"stages"`
}

// stageKind is one pipeline stage's task shape and duration distribution.
type stageKind struct {
	Stage string `json:"stage"`
	// Share is the stage's fraction of all recorded attempts.
	Share float64 `json:"share"`
	Cores int     `json:"cores"`
	GPUs  int     `json:"gpus"`
	// RunS holds quantiles 0, 1/(n-1), ..., 1 of the running-phase
	// duration of completed attempts, in seconds.
	RunS []float64 `json:"run_s"`
	// SetupS is the mean exec-setup duration, in seconds.
	SetupS float64 `json:"setup_s"`
}

// runQuantiles is how many duration quantiles a recorded stage keeps.
const runQuantiles = 21

func loadStageMix() (*stageMix, error) {
	var mix stageMix
	if err := json.Unmarshal(stageMixJSON, &mix); err != nil {
		return nil, fmt.Errorf("stage mix: %w", err)
	}
	if len(mix.Stages) == 0 {
		return nil, fmt.Errorf("stage mix: no stages")
	}
	share := 0.0
	for _, k := range mix.Stages {
		if len(k.RunS) < 2 || k.Cores+k.GPUs == 0 {
			return nil, fmt.Errorf("stage mix: stage %q is degenerate", k.Stage)
		}
		share += k.Share
	}
	if math.Abs(share-1) > 1e-6 {
		return nil, fmt.Errorf("stage mix: shares sum to %g", share)
	}
	return &mix, nil
}

// deck returns n stage indexes in proportion to the stage shares
// (largest remainder first), the stratified block the taskbag shuffles.
func (m *stageMix) deck(n int) []int {
	var deck []int
	type rem struct {
		stage int
		frac  float64
	}
	var rems []rem
	for i, k := range m.Stages {
		exact := k.Share * float64(n)
		for j := 0; j < int(exact); j++ {
			deck = append(deck, i)
		}
		rems = append(rems, rem{i, exact - math.Floor(exact)})
	}
	sort.SliceStable(rems, func(a, b int) bool { return rems[a].frac > rems[b].frac })
	for i := 0; len(deck) < n; i++ {
		deck = append(deck, rems[i].stage)
	}
	return deck
}

// draw returns stage i and a running time drawn by inverse-CDF
// interpolation between its recorded quantiles.
func (m *stageMix) draw(i int, rng *xrand.RNG) (*stageKind, time.Duration) {
	k := &m.Stages[i]
	pos := rng.Float64() * float64(len(k.RunS)-1)
	lo := int(pos)
	hi := min(lo+1, len(k.RunS)-1)
	s := k.RunS[lo] + (pos-float64(lo))*(k.RunS[hi]-k.RunS[lo])
	return k, time.Duration(s * float64(time.Second))
}

// meanRunS is the mean running time of a stage under draw's interpolation.
func (k *stageKind) meanRunS() float64 {
	sum := 0.0
	for i := 1; i < len(k.RunS); i++ {
		sum += (k.RunS[i-1] + k.RunS[i]) / 2
	}
	return sum / float64(len(k.RunS)-1)
}

// recordStageMix runs one mega-screen campaign and writes its stage mix.
// Shapes are cross-checked against the calibrated cost model, so a change
// to either shows up as a failed recording rather than a silently stale
// taskbag.
func recordStageMix(path string, seed uint64) error {
	inst, err := setupMegaScreen(seed, nil)
	if err != nil {
		return err
	}
	out, err := inst.run(nil)
	if err != nil {
		return err
	}
	type acc struct {
		n, cores, gpus int
		runs           []float64
		setup          float64
		setups         int
	}
	by := map[string]*acc{}
	total := 0
	for _, r := range out.records {
		a := by[r.Stage]
		if a == nil {
			a = &acc{cores: r.Cores, gpus: r.GPUs}
			by[r.Stage] = a
		}
		if a.cores != r.Cores || a.gpus != r.GPUs {
			return fmt.Errorf("stage %q has more than one task shape", r.Stage)
		}
		a.n++
		total++
		if r.State == "DONE" {
			a.runs = append(a.runs, r.Run().Seconds())
			a.setup += r.Setup().Seconds()
			a.setups++
		}
	}
	cost := costmodel.Default()
	want := map[string][2]int{
		"mpnn":    {cost.MPNNCores, cost.MPNNGPUs},
		"rank":    {cost.SmallTaskCores, 0},
		"fasta":   {cost.SmallTaskCores, 0},
		"af_msa":  {cost.MSACores, 0},
		"af_fold": {cost.InferCores, cost.InferGPUs},
		"metrics": {cost.SmallTaskCores, 0},
	}
	mix := stageMix{
		Source: fmt.Sprintf("mega-screen seed %d: %d mined targets, IM-RP on split CPU/GPU pilots", seed, megaScreenTargets),
		Tasks:  total,
	}
	names := make([]string, 0, len(by))
	for name := range by {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		a := by[name]
		if w, ok := want[name]; !ok || w != [2]int{a.cores, a.gpus} {
			return fmt.Errorf("stage %q shape %dc%dg disagrees with the cost model", name, a.cores, a.gpus)
		}
		if len(a.runs) < 2 {
			return fmt.Errorf("stage %q has too few completed attempts", name)
		}
		k := stageKind{Stage: name, Share: float64(a.n) / float64(total), Cores: a.cores, GPUs: a.gpus,
			SetupS: a.setup / float64(a.setups)}
		for i := 0; i < runQuantiles; i++ {
			k.RunS = append(k.RunS, math.Round(quantile(a.runs, float64(i)/(runQuantiles-1))*1e3)/1e3)
		}
		mix.Stages = append(mix.Stages, k)
	}
	data, err := json.MarshalIndent(mix, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
