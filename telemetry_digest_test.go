package impress_test

// Telemetry digest layer: two fault-heavy cells run with the recorder on
// at seed 42, and the sha256 of each cell's telemetry payload (as JSON)
// and of its Chrome export is pinned. Between them the cells emit every
// instant kind, so any change to what is recorded, how it is counted or
// where the exporter routes it changes a digest.

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"testing"

	"impress"
	"impress/internal/trace"
)

// telemetryDigestCell is one pinned cell: the scenario it comes from,
// the campaign name within it, and the digests of its payload and
// Chrome export.
type telemetryDigestCell struct {
	scenario, campaign string
	payload, chrome    string
}

var telemetryDigestCells = []telemetryDigestCell{
	// Crashes, repairs, outages, restores, the maintenance window,
	// transfers, steering moves and vetoes, pipeline kills, evictions.
	{"chaos-sweep", "chaos/elsewhere+preempt/seed42",
		"17741751543efe83f6a1a059911dc100015fcc5da0802004e6c755047f35b1d4",
		"726865d3418804f7a9810c29c49093bad7d2b594087122a60d7471cd5acbce4e"},
	// Checkpoints, evictions and resumes across a pilot's walltime.
	{"preempt-sweep", "preempt/kill+preempt/ck15m/seed42",
		"06bda3161d8afeb0c5741af4b538c571f6a268f5a0226f323230c37462464e5b",
		"33ae0bbb040736a2b2968057ec1ab337c5abb7f274448a86ebccf805737ee559"},
}

// allInstantKinds lists every instant kind the recorder knows.
var allInstantKinds = []string{
	trace.KindNodeCrash, trace.KindNodeRepair,
	trace.KindOutage, trace.KindRestore,
	trace.KindMaintOpen, trace.KindMaintClose,
	trace.KindTransfer, trace.KindPipelineKill,
	trace.KindSteerMove, trace.KindSteerVeto,
	trace.KindTaskCheckpoint, trace.KindTaskEvict, trace.KindTaskResume,
}

// runTelemetryCell builds scenario at seed 42 with 8 targets and the
// recorder on, and runs only the named campaign.
func runTelemetryCell(t *testing.T, scenario, campaign string) *impress.Result {
	t.Helper()
	campaigns, err := impress.BuildScenario(scenario, impress.ScenarioParams{
		Seed:      42,
		Seeds:     1,
		Targets:   8,
		Telemetry: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range campaigns {
		if c.Name != campaign {
			continue
		}
		out := impress.RunCampaigns([]impress.Campaign{c}, 1)[0]
		if out.Err != nil {
			t.Fatalf("%s: %v", campaign, out.Err)
		}
		return out.Result
	}
	t.Fatalf("%s has no campaign %q", scenario, campaign)
	return nil
}

// TestTelemetryDigests runs each pinned cell once per kernel path the CPU
// has (forEachKernel): both paths must give the pinned bytes.
func TestTelemetryDigests(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		seen := make(map[string]int)
		for _, cell := range telemetryDigestCells {
			t.Run(cell.campaign, func(t *testing.T) {
				res := runTelemetryCell(t, cell.scenario, cell.campaign)
				if res.Telemetry == nil {
					t.Fatal("telemetry enabled but Result.Telemetry is nil")
				}
				for _, in := range res.Telemetry.Instants {
					seen[in.Kind]++
				}
				payload, err := json.Marshal(res.Telemetry)
				if err != nil {
					t.Fatal(err)
				}
				var chrome bytes.Buffer
				if err := impress.WriteChromeTrace(&chrome, []*impress.Result{res}, []string{cell.campaign}); err != nil {
					t.Fatal(err)
				}
				if sum := fmt.Sprintf("%x", sha256.Sum256(payload)); sum != cell.payload {
					t.Errorf("telemetry payload (%d bytes) has sha256 %s, want %s", len(payload), sum, cell.payload)
				}
				if sum := fmt.Sprintf("%x", sha256.Sum256(chrome.Bytes())); sum != cell.chrome {
					t.Errorf("chrome export (%d bytes) has sha256 %s, want %s", chrome.Len(), sum, cell.chrome)
				}
			})
		}
		for _, kind := range allInstantKinds {
			if seen[kind] == 0 {
				t.Errorf("no %s instant recorded by the pinned cells (seen %v)", kind, seen)
			}
		}
	})
}
