package campaign

import (
	"fmt"
	"io"

	"impress/internal/core"
	"impress/internal/report"
)

// The renderers of the paper's evaluation scenarios (table1, fig2–fig5).
// Each takes the completed results in campaign order: CONT-V before
// IM-RP for the pair. A run where some campaign failed hands them fewer
// results than the scenario has cells, so every renderer checks.

// incomplete is the report of a paper scenario missing results.
func incomplete(figure string, want int, results []*core.Result) string {
	return fmt.Sprintf("%s needs %d completed campaign(s); %d completed\n", figure, want, len(results))
}

// maxIterations is the longest design-iteration axis over results.
func maxIterations(results []*core.Result) int {
	iters := 0
	for _, r := range results {
		if n := r.Iterations(); n > iters {
			iters = n
		}
	}
	return iters
}

// tableIReport renders Table I with its definitions note and the two
// campaign summaries.
func tableIReport(results []*core.Result) string {
	if len(results) < 2 {
		return incomplete("Table I", 2, results)
	}
	ctrl, adpt := results[0], results[1]
	return report.TableI(ctrl, adpt) +
		"\nPL = pipeline. 'Time (h)' is aggregate task execution time (the paper's" +
		"\ndefinition: total time taken by all tasks on the compute resources);" +
		"\nmakespan is reported alongside. Sub-pipelines each run one refinement cycle.\n" +
		"\n" + report.Summary(ctrl) + "\n" + report.Summary(adpt) + "\n"
}

// fig2Report renders Fig. 2: the pair's per-iteration metrics side by
// side.
func fig2Report(results []*core.Result) string {
	if len(results) < 2 {
		return incomplete("Fig. 2", 2, results)
	}
	return report.IterationFigure(
		"Fig. 2: AlphaFold metrics per iteration, CONT-V vs IM-RP (4 PDZ-peptide structures)",
		maxIterations(results), results[0], results[1])
}

// fig3Report renders Fig. 3: the expanded screen's per-iteration
// metrics and its run summary.
func fig3Report(results []*core.Result) string {
	if len(results) < 1 {
		return incomplete("Fig. 3", 1, results)
	}
	res := results[0]
	return report.IterationFigure(
		fmt.Sprintf("Fig. 3: AlphaFold metrics per iteration, expanded IM-RP workflow (%d structures)", len(res.Targets)),
		res.Iterations(), res) +
		fmt.Sprintf("\n%s\n(adaptivity disabled in the final cycle; %d sub-pipelines, %d trajectories, %d early-terminated pipelines)\n",
			report.Summary(res), res.SubPipelines, res.TrajectoryCount(), res.EarlyTerminated)
}

// utilizationReport renders a Fig. 4 / Fig. 5 utilization figure.
func utilizationReport(figure, title string) func([]*core.Result) string {
	return func(results []*core.Result) string {
		if len(results) < 1 {
			return incomplete(figure, 1, results)
		}
		return report.UtilizationFigure(title, results[0])
	}
}

// iterationCSV writes every result's per-iteration metrics over the
// longest iteration axis.
func iterationCSV(w io.Writer, results []*core.Result) error {
	return report.IterationCSV(w, maxIterations(results), results...)
}

// seriesCSV writes every result's busy-resource series.
func seriesCSV(w io.Writer, results []*core.Result) error {
	for _, r := range results {
		if err := report.SeriesCSV(w, r); err != nil {
			return err
		}
	}
	return nil
}
