package main

import (
	"bytes"
	"fmt"
	"time"

	"impress/internal/cluster"
	"impress/internal/core"
	"impress/internal/fleet"
	"impress/internal/pipeline"
	"impress/internal/report"
	"impress/internal/telemetry"
	"impress/internal/tenancy"
	"impress/internal/workload"
	"impress/internal/xrand"
)

// The tenant wave is one multi-tenant service over a small shared pool:
// tenants arrive in a wave, weighted-fair admission seats them, fairshare
// reclaim moves nodes between them through checkpoint/evict/resume, and the
// run ends with a Chrome-trace export, a critical path per tenant and a
// fairness report. Each tenant brings exactly two targets: with three or
// more, weighted-fair admission with reclaim panics ("trace: busy cores 32
// outside [0,28]"), a defect that has its own fix pending.
const (
	waveTenants   = 24
	waveTargets   = 2
	wavePoolNodes = 12
	waveSpan      = 12 * time.Hour
)

type tenantWave struct {
	svc     *tenancy.Service
	targets []*workload.Target
	params  core.Config
}

func setupTenantWave(seed uint64, tr *tracer) (instance, error) {
	end := tr.begin("workload.build")
	tenants := make([]tenancy.TenantSpec, waveTenants)
	var all []*workload.Target
	for i := range tenants {
		name := fmt.Sprintf("t%d", i)
		tseed := seed + uint64(i)
		targets, err := workload.MinedScreen(xrand.Derive(tseed, "tenant:"+name), waveTargets, workload.DefaultConfig())
		if err != nil {
			end()
			return nil, err
		}
		all = append(all, targets...)
		cfg := core.AdaptiveConfig(tseed)
		cfg.Pipeline.MPNN.Parallelism = mpnnParallelism
		cfg.CheckpointInterval = 30 * time.Minute
		cfg.Telemetry = true
		tenants[i] = tenancy.TenantSpec{
			Name:    name,
			Seed:    tseed,
			Weight:  float64(1 + i%3),
			Nodes:   2 + i%3,
			Targets: targets,
			Config:  cfg,
		}
	}
	end()

	end = tr.begin("core.start")
	defer end()
	svc, err := tenancy.NewService(tenancy.Spec{
		Config: tenancy.Config{
			Machine:   cluster.AmarelCluster(wavePoolNodes),
			Seed:      seed,
			Arrival:   fleet.ArrivalWave,
			Span:      waveSpan,
			Admission: "weighted-fair",
			Reclaim:   "fairshare",
			Workers:   1,
		},
		Tenants: tenants,
	})
	if err != nil {
		return nil, err
	}
	return &tenantWave{svc: svc, targets: all, params: tenants[0].Config}, nil
}

func (w *tenantWave) run(tr *tracer) (*outcome, error) {
	end := tr.begin("tenancy.run")
	agg, err := w.svc.Run()
	end()
	if err != nil {
		return nil, err
	}
	results := w.svc.TenantResults()

	end = tr.begin("telemetry.export")
	traces := make([]telemetry.CampaignTrace, len(results))
	for i, r := range results {
		traces[i] = r.CampaignTrace(agg.Tenants[i].Name)
	}
	var buf bytes.Buffer
	err = telemetry.WriteChromeTrace(&buf, traces)
	end()
	if err != nil {
		return nil, err
	}

	end = tr.begin("telemetry.critpath")
	var tiles []check
	for i, r := range results {
		cp := r.CriticalPath()
		var sum time.Duration
		for _, s := range cp.Segments {
			sum += s.Total()
		}
		ts := agg.Tenants[i]
		tiles = append(tiles, checkf("critical path tiles "+ts.Name,
			sum == cp.Makespan && cp.Makespan == ts.Finished,
			"segments sum to %v, path makespan %v, tenant finished at %v", sum, cp.Makespan, ts.Finished))
	}
	end()

	end = tr.begin("report.render")
	text := report.Fairness([]*core.Result{agg})
	end()

	out := campaignOutcome(agg, 0)
	out.checks = append(out.checks, tiles...)
	out.checks = append(out.checks,
		checkf("chrome trace valid", telemetry.ValidateChromeTrace(buf.Bytes()) == nil, "export fails validation"),
		checkf("fairness report", len(text) > 0, "empty fairness report"),
		checkf("every tenant ran", len(agg.Tenants) == waveTenants, "%d of %d tenants reported", len(agg.Tenants), waveTenants))
	var wait float64
	reclaims := 0
	for _, ts := range agg.Tenants {
		wait += ts.Wait.Hours()
		reclaims += ts.Reclaimed
	}
	l := out.layer
	l["tenancy.admit_wait_h"] = wait / float64(len(agg.Tenants))
	l["tenancy.jain"] = report.JainOf(agg)
	l["tenancy.reclaims"] = float64(reclaims)
	l["telemetry.export_mb"] = float64(buf.Len()) / 1e6
	out.digest += fmt.Sprintf(" reclaims=%d jain=%.9g export=%d", reclaims, l["tenancy.jain"], buf.Len())
	return out, nil
}

func (w *tenantWave) scienceInputs() ([]*workload.Target, pipeline.Params, core.SubPolicy) {
	return w.targets, w.params.Pipeline, w.params.Sub
}
