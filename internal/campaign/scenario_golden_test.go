package campaign

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"impress/internal/fault"
)

// goldenScenariosPath pins what every registered scenario expands to:
// campaign names, order, seeds, targets and configs, plus the error text
// of every rejected parameter set. Regenerate with
//
//	UPDATE_GOLDEN=1 go test -run TestScenarioExpansionGolden ./internal/campaign
const goldenScenariosPath = "testdata/scenarios.golden"

// scenarioCase is one (scenario, params) expansion the golden pins.
type scenarioCase struct {
	scenario, label string
	p               Params
}

// scenarioCases lists every registered scenario at a small common
// parameter set, then the overrides each sweep honours or rejects.
func scenarioCases() []scenarioCase {
	var cases []scenarioCase
	for _, sc := range Scenarios() {
		// Each workload parameter the scenario does not declare it reads
		// (Scenario.Reads) is set to a value of its own, so the golden
		// changes if the builder reads it after all.
		p := Params{Seed: 3, Seeds: 2, Targets: 2}
		if !sc.Reads.Seeds {
			p.Seeds = 3
		}
		if !sc.Reads.Targets {
			p.Targets = 3
		}
		if !sc.Reads.Fleet {
			p.Fleet = "cpu:8c0g32m*2+gpu:8c4g32m*1"
		}
		if !sc.Reads.Tenancy {
			p.Tenants, p.Arrival, p.ArrivalSpan, p.Admission, p.Reclaim = 3, "linear", time.Hour, "quota", "none"
		}
		cases = append(cases, scenarioCase{sc.Name, "default", p})
	}
	base := Params{Seed: 3, Seeds: 2, Targets: 2}
	with := func(edit func(*Params)) Params {
		p := base
		edit(&p)
		return p
	}
	return append(cases,
		scenarioCase{"pair", "every knob", with(func(p *Params) {
			p.SplitPilots, p.Nodes, p.Policy, p.Recovery, p.Steer = true, 3, "bestfit", "retry", "greedy"
			p.Fault = fault.Spec{TaskFailProb: 0.1}
			p.Telemetry, p.CheckpointInterval = true, 20*time.Minute
		})},
		scenarioCase{"screen", "split pilots", with(func(p *Params) { p.SplitPilots = true })},
		scenarioCase{"policy-compare", "policy fifo", with(func(p *Params) { p.Policy = "fifo" })},
		scenarioCase{"policy-compare", "recovery retry", with(func(p *Params) { p.Recovery = "retry" })},
		scenarioCase{"fault-sweep", "recovery retry", with(func(p *Params) { p.Recovery = "retry" })},
		scenarioCase{"fault-sweep", "fault 0.2 mtbf 12h", with(func(p *Params) {
			p.Fault = fault.Spec{TaskFailProb: 0.2, NodeMTBF: 12 * time.Hour}
		})},
		scenarioCase{"fault-sweep", "steer none", with(func(p *Params) { p.Steer = "none" })},
		scenarioCase{"chaos-sweep", "recovery retry", with(func(p *Params) { p.Recovery = "retry" })},
		scenarioCase{"chaos-sweep", "steer greedy", with(func(p *Params) { p.Steer = "greedy" })},
		scenarioCase{"chaos-sweep", "steer none", with(func(p *Params) { p.Steer = "none" })},
		scenarioCase{"chaos-sweep", "fault 0.1 nodes 6 split", with(func(p *Params) {
			p.Fault = fault.Spec{TaskFailProb: 0.1}
			p.Nodes, p.SplitPilots = 6, true
		})},
		scenarioCase{"preempt-sweep", "checkpoint 30m", with(func(p *Params) { p.CheckpointInterval = 30 * time.Minute })},
		scenarioCase{"preempt-sweep", "steer greedy", with(func(p *Params) { p.Steer = "greedy" })},
		scenarioCase{"preempt-sweep", "steer none", with(func(p *Params) { p.Steer = "none" })},
		scenarioCase{"preempt-sweep", "recovery retry policy bestfit", with(func(p *Params) {
			p.Recovery, p.Policy = "retry", "bestfit"
		})},
		scenarioCase{"elastic-screen", "steer greedy", with(func(p *Params) { p.Steer = "greedy" })},
		scenarioCase{"elastic-screen", "steer none", with(func(p *Params) { p.Steer = "none" })},
		scenarioCase{"elastic-screen", "nodes 6", with(func(p *Params) { p.Nodes = 6 })},
		scenarioCase{"kilo-screen", "steer none recovery retry", with(func(p *Params) {
			p.Seeds, p.Steer, p.Recovery = 1, "none", "retry"
		})},
		scenarioCase{"tenant-sweep", "admission quota", with(func(p *Params) { p.Admission = "quota" })},
		scenarioCase{"tenant-sweep", "split pilots", with(func(p *Params) { p.SplitPilots = true })},
	)
}

// hashJSON is the sha256 of v's JSON encoding, or the encoding error.
func hashJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return "error " + err.Error()
	}
	return fmt.Sprintf("%x", sha256.Sum256(b))
}

// renderExpansion writes one case: each campaign's name, seed, targets
// and config hashes in build order, or the build error.
func renderExpansion(sb *strings.Builder, c scenarioCase) {
	fmt.Fprintf(sb, "== %s [%s] ==\n", c.scenario, c.label)
	campaigns, err := Build(c.scenario, c.p)
	if err != nil {
		fmt.Fprintf(sb, "error: %v\n", err)
		return
	}
	for _, cm := range campaigns {
		targets := make([]string, len(cm.Targets))
		for i, tg := range cm.Targets {
			targets[i] = fmt.Sprintf("%s@%d", tg.Name, tg.Seed)
		}
		fmt.Fprintf(sb, "%s seed=%d targets=[%s]\n  config=%s\n  tenancy=%s\n",
			cm.Name, cm.Seed, strings.Join(targets, " "), hashJSON(cm.Config), hashJSON(cm.Tenancy))
	}
}

// TestScenarioExpansionGolden pins the expansion of every registered
// scenario, so a change to how scenarios are declared or expanded shows
// as a diff here before any campaign runs.
func TestScenarioExpansionGolden(t *testing.T) {
	var sb strings.Builder
	for _, c := range scenarioCases() {
		renderExpansion(&sb, c)
	}
	got := sb.String()
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(goldenScenariosPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenScenariosPath)
	if err != nil {
		t.Fatalf("reading golden file: %v (regenerate with UPDATE_GOLDEN=1)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < min(len(gl), len(wl)); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("expansion diverges from %s at line %d:\n got: %s\nwant: %s", goldenScenariosPath, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("expansion has %d lines, %s has %d", len(gl), goldenScenariosPath, len(wl))
	}
}
