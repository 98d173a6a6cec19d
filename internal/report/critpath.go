package report

import (
	"fmt"
	"strings"

	"impress/internal/core"
)

// CriticalPath renders the critical-path analysis of one campaign: the
// chain of task attempts whose waits, setups, and runs account for the
// entire makespan, followed by the per-stage slack table. A stage with
// near-zero slack is the campaign's bottleneck — shortening anything
// else cannot shorten the campaign.
func CriticalPath(r *core.Result) string {
	cp := r.CriticalPath()
	var sb strings.Builder
	label := r.Approach
	if label == "" {
		label = "campaign"
	}
	fmt.Fprintf(&sb, "Critical path (%s, seed %d): %d segment(s) spanning %.2f h\n",
		label, r.Seed, len(cp.Segments), cp.Makespan.Hours())
	sb.WriteString("(gap + wait + setup + run over the path sums to the makespan)\n")

	t := NewTable("#", "Task", "Stage", "Pilot", "Att", "Gap", "Wait", "Setup", "Run", "End (h)")
	for i, seg := range cp.Segments {
		stage := seg.Stage
		if stage == "" {
			stage = seg.Name
		}
		t.AddRow(
			fmt.Sprintf("%d", i+1),
			seg.ID,
			stage,
			seg.Pilot,
			fmt.Sprintf("%d", seg.Attempt),
			fmtWait(seg.Gap),
			fmtWait(seg.Wait),
			fmtWait(seg.Setup),
			fmtWait(seg.Run),
			fmt.Sprintf("%.2f", seg.EndedAt.Hours()),
		)
	}
	sb.WriteString(t.String())

	sb.WriteString("\nPer-stage slack (min over attempts; 0 = on the critical path)\n")
	st := NewTable("Stage", "Attempts", "On path", "Busy (h)", "Path time", "Slack")
	for _, s := range cp.Stages {
		st.AddRow(
			s.Stage,
			fmt.Sprintf("%d", s.Attempts),
			fmt.Sprintf("%d", s.OnPath),
			fmt.Sprintf("%.2f", s.Busy.Hours()),
			fmtWait(s.PathTime),
			fmtWait(s.Slack),
		)
	}
	sb.WriteString(st.String())
	return sb.String()
}
