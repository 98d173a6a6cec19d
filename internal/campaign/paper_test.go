package campaign

import (
	"io"
	"strings"
	"testing"

	"impress/internal/core"
)

// TestPaperReportsHandlePartialResults: a paper scenario run where some
// campaign failed hands its report fewer results than it has cells. Each
// of the five reports and CSV writers must render that without
// panicking, and a report short of results must say so.
func TestPaperReportsHandlePartialResults(t *testing.T) {
	out := Run([]Campaign{miniCampaign(t, "")}, 1)[0]
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	cells := map[string]int{"table1": 2, "fig2": 2, "fig3": 1, "fig4": 1, "fig5": 1}
	for name, want := range cells {
		sc, ok := Lookup(name)
		if !ok {
			t.Fatalf("paper scenario %q not registered", name)
		}
		for _, results := range [][]*core.Result{nil, {out.Result}} {
			text := sc.Report(results)
			if len(results) < want && !strings.Contains(text, "completed") {
				t.Errorf("%s with %d result(s): report does not say it is incomplete:\n%s", name, len(results), text)
			}
			if err := sc.ReportCSV(io.Discard, results); err != nil {
				t.Errorf("%s with %d result(s): CSV: %v", name, len(results), err)
			}
		}
	}
}
