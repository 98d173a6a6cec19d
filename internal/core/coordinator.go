// Package core implements the paper's primary contribution: the IMPRESS
// pipelines coordinator (Fig. 1, elements 1–3 and 6–7) running on the
// pilot runtime.
//
// The coordinator (i) constructs and generates IMPRESS pipelines,
// (ii) submits independent pipeline tasks concurrently for scheduling and
// execution based on resource availability while tracking their states,
// and (iii) makes adaptive decisions on submitting new pipelines and with
// what characteristics. It keeps a global perspective on every pipeline's
// results (ga.Pool) and re-processes "low-quality" sequences with
// dynamically generated sub-pipelines that soak up idle resources.
//
// The control runner (CONT-V) exercises the identical stages with
// adaptivity off and strictly sequential execution — the paper's baseline.
package core

import (
	"fmt"
	"time"

	"impress/internal/cluster"
	"impress/internal/fault"
	"impress/internal/ga"
	"impress/internal/pilot"
	"impress/internal/pipeline"
	"impress/internal/protein"
	"impress/internal/sched"
	"impress/internal/simclock"
	"impress/internal/steer"
	"impress/internal/telemetry"
	"impress/internal/trace"
	"impress/internal/workload"
	"impress/internal/xrand"
)

// SubPolicy governs dynamic sub-pipeline generation — the paper's
// decision-making step ("dynamically generates sub-pipelines when
// additional refinement, exploration, or iterative improvement is
// needed").
type SubPolicy struct {
	// Enabled turns sub-pipeline generation on.
	Enabled bool
	// Quantile flags a cycle result as low-quality when its composite
	// quality falls below this quantile of the global pool.
	Quantile float64
	// MinPoolSamples suppresses flagging until the pool has context.
	MinPoolSamples int
	// MaxPerTarget caps sub-pipelines per target.
	MaxPerTarget int
	// MaxTotal caps sub-pipelines per campaign (0 = unlimited).
	MaxTotal int
	// Cycles is the sub-pipeline length (paper behaviour: one refinement
	// cycle per sub-pipeline).
	Cycles int
	// TempFactor widens the sub-pipeline's MPNN sampling temperature for
	// exploration ("explore alternative conformations").
	TempFactor float64
	// ExtraSequences adds candidates to the sub-pipeline's Stage 1.
	ExtraSequences int
	// ModelFactor multiplies the sub-pipeline's AlphaFold model count
	// ("refine the resolution"): more candidate models per prediction.
	ModelFactor int
	// SpawnOnTermination also spawns when a pipeline dies of retry
	// exhaustion.
	SpawnOnTermination bool
}

// DefaultSubPolicy returns the policy calibrated to reproduce the paper's
// sub-pipeline counts (7 subs on the 4-target campaign, ~96 on the
// 70-target screen).
func DefaultSubPolicy() SubPolicy {
	return SubPolicy{
		Enabled:            true,
		Quantile:           0.55,
		MinPoolSamples:     2,
		MaxPerTarget:       2,
		MaxTotal:           0,
		Cycles:             1,
		TempFactor:         1.5,
		ExtraSequences:     10,
		ModelFactor:        2,
		SpawnOnTermination: true,
	}
}

// Config describes one campaign.
type Config struct {
	// Pipeline is the per-pipeline protocol configuration.
	Pipeline pipeline.Params
	// Machine is the resource to run on when Pilots is empty (the classic
	// single-pilot campaign).
	Machine cluster.Spec
	// Pilots, when set, runs the campaign over a set of heterogeneous
	// pilots with task routing by resource class — e.g. SplitPilots'
	// CPU/GPU partition pair. Machine is ignored when Pilots is non-empty.
	Pilots []PilotSpec
	// Sub is the sub-pipeline generation policy.
	Sub SubPolicy
	// MaxConcurrent caps concurrently active pipelines (0 = unlimited;
	// the control runner forces 1).
	MaxConcurrent int
	// Policy names the agent scheduling policy for every pilot of the
	// campaign (internal/sched: fifo, backfill, bestfit, worstfit,
	// largest). Empty means fifo; AdaptiveConfig picks backfill and
	// ControlConfig fifo.
	Policy string
	// Fault declares the failure models injected into every pilot
	// (internal/fault). The zero value is inert: the campaign is
	// bit-identical to one run without the fault subsystem. With faults
	// enabled, a pipeline whose task fails terminally is killed and
	// counted instead of failing the campaign. Fault.Walltime is the one
	// bound on a pilot's lifetime.
	Fault fault.Spec
	// Recovery names the fault-recovery policy for every pilot
	// (internal/fault: none, retry, backoff, elsewhere). Empty means
	// "none". Individual PilotSpec entries may override it per pilot.
	Recovery string
	// CheckpointInterval enables checkpointed preemption: every running
	// task banks recoverable progress at this virtual-time cadence, so
	// an evicted or failed attempt resumes from its last checkpoint
	// instead of from zero. 0 (the default) disables checkpointing —
	// byte-identical to the pre-checkpoint runtime.
	CheckpointInterval time.Duration
	// WalltimeGrace softens fault-model walltime expiry into a graceful
	// drain: at the deadline the pilot stops accepting work, checkpoints
	// and requeues to surviving pilots whatever cannot finish within the
	// grace window, and lets the rest run out. 0 keeps the hard kill.
	WalltimeGrace time.Duration
	// Telemetry enables the campaign's observability layer
	// (internal/telemetry): instant events from the fault injector and
	// steering controller, per-pilot occupancy gauges, and steering-tick
	// logs, all riding on the Result for Chrome-trace export. Off (the
	// default) the recorder is nil and the campaign is byte-identical to
	// a runtime without the subsystem.
	Telemetry bool
	// Steer names the campaign's elastic-steering policy
	// (internal/steer: none, greedy, hysteresis). Empty means "none":
	// pilot partitions stay frozen at campaign start, bit-identical to
	// the pre-steering runtime. With steering on, a controller watches
	// per-pilot queue pressure and transfers idle nodes between every
	// pilot of the campaign.
	Steer string
	// Seed is the campaign's root seed.
	Seed uint64
}

// AdaptiveConfig returns the IM-RP campaign configuration on the paper's
// Amarel node.
func AdaptiveConfig(seed uint64) Config {
	p := pipeline.IMRPParams()
	p.Seed = seed
	return Config{
		Pipeline: p,
		Machine:  cluster.AmarelNode(),
		Sub:      DefaultSubPolicy(),
		Policy:   "backfill",
		Seed:     seed,
	}
}

// ControlConfig returns the CONT-V campaign configuration: sequential,
// non-adaptive, no sub-pipelines.
func ControlConfig(seed uint64) Config {
	p := pipeline.ControlParams()
	p.Seed = seed
	return Config{
		Pipeline:      p,
		Machine:       cluster.AmarelNode(),
		Sub:           SubPolicy{},
		MaxConcurrent: 1,
		Policy:        "fifo",
		Seed:          seed,
	}
}

// Coordinator drives one campaign over the pilot runtime. Create with
// NewCoordinator, then call Run.
type Coordinator struct {
	cfg     Config
	targets []*workload.Target

	engine  *simclock.Engine
	rec     *trace.Recorder
	tel     *telemetry.Recorder
	specs   []PilotSpec
	pilots  []*pilot.Pilot
	tm      *pilot.TaskManager
	steerer *steer.Controller

	pipelines    map[string]*pipeline.Pipeline
	waiting      []*pipeline.Pipeline
	active       int
	pool         *ga.Pool
	trajectories []pipeline.Trajectory
	events       *EventStream
	bestDesign   map[string]*protein.Structure

	basePipelines int
	subPipelines  int
	subPerTarget  map[string]int
	terminated    int
	evaluations   int
	failedTasks   int
	retriedTasks  int
	killed        map[string]bool
	inFlight      map[string][]*pilot.Task
	nextSubID     int
	errs          []error

	// onDone, when set, fires exactly once at quiesce — the hook the
	// multi-tenant service uses to learn, on the shared timeline, that
	// this campaign's work has drained. Nil for private-cluster runs.
	onDone    func()
	doneFired bool
}

// NewCoordinator validates the configuration and prepares a campaign over
// the given targets.
func NewCoordinator(targets []*workload.Target, cfg Config) (*Coordinator, error) {
	if len(targets) == 0 {
		return nil, fmt.Errorf("core: no targets")
	}
	if err := cfg.Pipeline.Validate(); err != nil {
		return nil, err
	}
	if err := validatePilots(cfg.pilotSpecs()); err != nil {
		return nil, err
	}
	if err := sched.Validate(cfg.Policy); err != nil {
		return nil, err
	}
	if err := cfg.Fault.Validate(); err != nil {
		return nil, err
	}
	if err := fault.Validate(cfg.Recovery); err != nil {
		return nil, err
	}
	if err := steer.Validate(cfg.Steer); err != nil {
		return nil, err
	}
	for _, ps := range cfg.pilotSpecs() {
		if err := fault.Validate(ps.Recovery); err != nil {
			return nil, fmt.Errorf("core: pilot %q: %w", ps.Name, err)
		}
		if ps.Fault != nil {
			if err := ps.Fault.Validate(); err != nil {
				return nil, fmt.Errorf("core: pilot %q: %w", ps.Name, err)
			}
		}
	}
	if cfg.CheckpointInterval < 0 {
		return nil, fmt.Errorf("core: negative checkpoint interval %v", cfg.CheckpointInterval)
	}
	if cfg.WalltimeGrace < 0 {
		return nil, fmt.Errorf("core: negative walltime grace %v", cfg.WalltimeGrace)
	}
	if steer.Enabled(cfg.Steer) && len(cfg.pilotSpecs()) < 2 {
		return nil, fmt.Errorf("core: steering policy %q needs a multi-pilot campaign (nothing to transfer between)", cfg.Steer)
	}
	if cfg.Sub.Enabled {
		if cfg.Sub.Cycles <= 0 || cfg.Sub.Quantile < 0 || cfg.Sub.Quantile > 1 || cfg.Sub.TempFactor <= 0 {
			return nil, fmt.Errorf("core: invalid sub-pipeline policy %+v", cfg.Sub)
		}
	}
	seen := make(map[string]bool, len(targets))
	for _, tg := range targets {
		if tg == nil {
			return nil, fmt.Errorf("core: nil target")
		}
		if seen[tg.Name] {
			return nil, fmt.Errorf("core: duplicate target %q", tg.Name)
		}
		seen[tg.Name] = true
	}
	return &Coordinator{
		cfg:          cfg,
		targets:      targets,
		pipelines:    make(map[string]*pipeline.Pipeline),
		pool:         ga.NewPool(),
		subPerTarget: make(map[string]int),
		bestDesign:   make(map[string]*protein.Structure),
		killed:       make(map[string]bool),
		inFlight:     make(map[string][]*pilot.Task),
	}, nil
}

// Run executes the campaign to completion in virtual time and returns its
// results. It can be called once. Run owns a private engine; multi-tenant
// callers use StartOn/Finish against a shared one instead.
func (c *Coordinator) Run() (*Result, error) {
	if err := c.StartOn(simclock.New(), nil); err != nil {
		return nil, err
	}
	c.engine.Run()
	return c.Finish(c.engine.Now())
}

// StartOn arms the campaign on a caller-owned engine: pilots are
// submitted, base pipelines constructed, and the first wave of work
// scheduled, but no virtual time passes — the caller drives the engine.
// The trace recorder starts at the engine's current instant, so a
// campaign admitted mid-timeline measures its makespan from admission.
// onDone (optional) fires exactly once when the campaign quiesces; the
// caller then harvests the outcome with Finish once the engine drains.
func (c *Coordinator) StartOn(engine *simclock.Engine, onDone func()) error {
	if c.engine != nil {
		return fmt.Errorf("core: Run called twice")
	}
	c.engine = engine
	c.onDone = onDone
	c.specs = c.cfg.pilotSpecs()
	totalCores, totalGPUs := 0, 0
	for _, ps := range c.specs {
		totalCores += ps.TotalCores()
		totalGPUs += ps.TotalGPUs()
	}
	c.rec = trace.NewRecorder(totalCores, totalGPUs, engine.Now())
	pm := pilot.NewPilotManager(c.engine, c.rec)
	if c.cfg.Telemetry {
		c.tel = telemetry.NewRecorder()
		pm.SetTelemetry(c.tel)
	}
	for _, ps := range c.specs {
		p, err := pm.Submit(pilot.PilotDescription{
			Machine:            ps.Machine,
			Nodes:              ps.Nodes,
			Cost:               c.cfg.Pipeline.Cost,
			Policy:             c.cfg.Policy,
			Fault:              ps.faultFor(c.cfg),
			Recovery:           ps.recoveryFor(c.cfg),
			Steer:              c.cfg.Steer,
			CheckpointInterval: c.cfg.CheckpointInterval,
			WalltimeGrace:      c.cfg.WalltimeGrace,
			Seed:               xrand.Derive(c.cfg.Seed, ps.Name),
		})
		if err != nil {
			return err
		}
		c.pilots = append(c.pilots, p)
	}
	c.tm = pilot.NewTaskManager(c.engine, c.pilots...)
	c.tm.OnState(c.onTaskState)
	c.tm.SetRerouter(c.rerouteResubmission)
	c.startSteering()

	// Construct the base pipelines — one per starting structure, as in
	// the paper's implementation ("submitting a single protein structure
	// for each new pipeline").
	for i, tg := range c.targets {
		id := fmt.Sprintf("pl.%04d", i+1)
		params := c.cfg.Pipeline
		params.Seed = xrand.Derive(c.cfg.Seed, "pipeline:"+id)
		pl, err := pipeline.New(id, tg, nil, params)
		if err != nil {
			return err
		}
		c.pipelines[id] = pl
		c.basePipelines++
		c.waiting = append(c.waiting, pl)
	}
	c.startWaiting()
	return nil
}

// Finish closes the campaign's trace at the given instant and assembles
// its result — the harvest half of StartOn. Run calls it with the
// engine's drain time; the multi-tenant service calls it with the instant
// its quiesce hook recorded, so a tenant that finished mid-timeline does
// not book the shared engine's idle tail into its makespan.
func (c *Coordinator) Finish(at simclock.Time) (*Result, error) {
	c.rec.Close(at)
	c.publish(EventCampaignDone, nil, nil, fmt.Sprintf("%d trajectories", len(c.trajectories)))
	if c.events != nil {
		c.events.q.Close()
	}
	if len(c.errs) > 0 {
		return nil, fmt.Errorf("core: campaign had %d errors; first: %w", len(c.errs), c.errs[0])
	}
	return c.buildResult(), nil
}

// Pilots exposes the campaign's pilots — the handle the inter-campaign
// steering layer uses to observe queue pressure and to grow, shrink, or
// drain leased nodes. Valid after StartOn.
func (c *Coordinator) Pilots() []*pilot.Pilot { return c.pilots }

// startWaiting launches queued pipelines up to the concurrency cap.
func (c *Coordinator) startWaiting() {
	for len(c.waiting) > 0 && (c.cfg.MaxConcurrent == 0 || c.active < c.cfg.MaxConcurrent) {
		pl := c.waiting[0]
		c.waiting = c.waiting[1:]
		c.active++
		c.publish(EventPipelineStarted, pl, nil, "")
		c.apply(pl, pl.Start())
	}
}

// onTaskState is the completed-tasks communication channel (Fig. 1): it
// routes every finished task back to its pipeline and feeds the outcome
// through the decision-making step. Under fault injection it is also the
// recovery router: attempts with a planned resubmission are simply
// awaited, while terminal failures kill their pipeline (a counted,
// survivable outcome) instead of failing the whole campaign.
func (c *Coordinator) onTaskState(t *pilot.Task, s pilot.TaskState) {
	switch s {
	case pilot.StateDone:
	case pilot.StateFailed, pilot.StateCanceled:
		plID := t.Tag("pipeline")
		if plID == "" {
			return
		}
		if t.WillRetry() {
			// The recovery policy scheduled another attempt; the pipeline
			// just keeps waiting for the stage result.
			c.retriedTasks++
			return
		}
		if c.killed[plID] {
			// Cleanup cancellation of a killed pipeline's remaining work;
			// the loss is already booked.
			return
		}
		c.failedTasks++
		if c.cfg.faultEnabled() {
			c.killPipeline(plID, t, s)
		} else {
			c.errs = append(c.errs, fmt.Errorf("task %s (%s) ended %v: %w", t.ID, t.Description.Name, s, t.Err))
		}
		return
	default:
		return
	}
	plID := t.Tag("pipeline")
	if c.killed[plID] {
		// A straggler of a killed pipeline (e.g. the surviving half of a
		// split fold) completed; its result has nowhere to go.
		return
	}
	pl, ok := c.pipelines[plID]
	if !ok {
		c.errs = append(c.errs, fmt.Errorf("task %s references unknown pipeline %q", t.ID, plID))
		return
	}
	stage, err := pipeline.StageOf(t)
	if err != nil {
		c.errs = append(c.errs, err)
		return
	}
	if stage == pipeline.StageFold {
		c.evaluations++
	}
	c.apply(pl, pl.HandleResult(stage, t.Result.Value))
}

// apply submits a pipeline outcome's next steps and runs the coordinator
// decision step on concluded cycles.
func (c *Coordinator) apply(pl *pipeline.Pipeline, out pipeline.Outcome) {
	for _, step := range out.Steps {
		c.route(&step.Desc)
		t, err := c.tm.Submit(step.Desc)
		if err != nil {
			c.errs = append(c.errs, err)
			continue
		}
		if c.cfg.faultEnabled() {
			// Remember the pipeline's submissions so killPipeline can
			// cancel the survivors instead of letting them burn
			// allocation on a result nobody will read.
			c.inFlight[pl.ID] = append(c.inFlight[pl.ID], t)
		}
	}
	if out.Cycle != nil {
		traj := *out.Cycle
		c.trajectories = append(c.trajectories, traj)
		// The global pool holds the accepted design set — what Figs. 2
		// and 3 plot per iteration. Declined terminal cycles count as
		// trajectories but never join the design pool.
		if traj.Accepted {
			best, had := c.pool.Best(traj.Target)
			c.pool.Add(ga.Entry{
				Target:    traj.Target,
				Iteration: traj.Generation,
				Metrics:   traj.Metrics,
				Sub:       traj.Sub,
			})
			if traj.Result != nil && (!had || traj.Metrics.BetterThan(best)) {
				c.bestDesign[traj.Target] = traj.Result
			}
		}
		c.publish(EventCycleConcluded, pl, &traj, "")
		c.decide(pl, traj, out)
	}
	if out.Finished {
		note := "completed"
		if out.Terminated {
			c.terminated++
			note = "terminated: retries exhausted"
		}
		c.publish(EventPipelineFinished, pl, nil, note)
		c.active--
		c.startWaiting()
		c.quiesce()
	}
}

// killPipeline retires a pipeline whose task failed terminally under
// fault injection: the pipeline can never conclude (its stage result is
// lost), so the campaign books the loss and moves on — the resilience
// metrics the fault-sweep scenario measures are built from these counts.
func (c *Coordinator) killPipeline(plID string, t *pilot.Task, s pilot.TaskState) {
	pl, ok := c.pipelines[plID]
	if !ok || c.killed[plID] || pl.Finished() {
		return
	}
	c.killed[plID] = true
	c.publish(EventPipelineKilled, pl, nil,
		fmt.Sprintf("task %s (%s) ended %v after %d attempt(s): %v", t.ID, t.Description.Name, s, t.Attempt, t.Err))
	c.tel.Instant(c.engine.Now(), telemetry.KindPipelineKill, -1, -1, plID)
	// Abort the pipeline's other in-flight work (e.g. the surviving half
	// of a split fold): its results have nowhere to go, so every further
	// core-hour would be waste.
	for _, sib := range c.inFlight[plID] {
		c.tm.CancelChain(sib, "pipeline "+plID+" killed by fault")
	}
	delete(c.inFlight, plID)
	c.active--
	c.startWaiting()
	c.quiesce()
}

// rerouteResubmission picks a surviving pilot for a resubmitted task,
// honouring the campaign's resource-class routing (PilotSpec.Serves)
// exactly as the original placement did.
func (c *Coordinator) rerouteResubmission(td pilot.TaskDescription) (*pilot.Pilot, bool) {
	class := ClassOf(td)
	req := cluster.Request{Cores: td.Cores, GPUs: td.GPUs, MemGB: td.MemGB}
	for i, ps := range c.specs {
		p := c.pilots[i]
		if p.State() == pilot.PilotDone || p.Draining() || !ps.ServesClass(class) {
			continue
		}
		if p.Cluster().Fits(req) {
			return p, true
		}
	}
	return nil, false
}

// startSteering arms the elastic steering controller when the campaign
// configures a steering policy over multiple pilots. With steering off
// (the default) no controller exists, no ticker is scheduled, and the
// campaign is bit-identical to the pre-steering runtime.
func (c *Coordinator) startSteering() {
	if !steer.Enabled(c.cfg.Steer) || len(c.pilots) < 2 {
		return
	}
	pol, err := steer.New(c.cfg.Steer)
	if err != nil {
		// Config.Steer was validated in NewCoordinator.
		panic(err)
	}
	elastics := make([]steer.Elastic, len(c.pilots))
	for i, p := range c.pilots {
		elastics[i] = p
	}
	c.steerer = steer.NewController(c.engine, elastics, pol, steer.DefaultPeriod, c.onNodeTransfer)
	c.steerer.SetTelemetry(c.tel)
	c.steerer.Start()
}

// onNodeTransfer publishes one applied node transfer on the event
// stream — the steering analogue of the pipeline lifecycle events.
func (c *Coordinator) onNodeTransfer(mv steer.Move) {
	c.publish(EventNodeTransferred, nil, nil,
		fmt.Sprintf("%s -> %s (%dc/%dg/%dGB)",
			c.specs[mv.From].Name, c.specs[mv.To].Name, mv.Node.Cores, mv.Node.GPUs, mv.Node.MemGB))
	if c.tel.Enabled() {
		c.tel.Instant(mv.At, telemetry.KindTransfer, mv.To, -1,
			fmt.Sprintf("%s -> %s", c.specs[mv.From].Name, c.specs[mv.To].Name))
	}
}

// quiesce retires the campaign's standing runtime machinery — every
// pilot's fault injector and the steering controller — once no pipeline
// is active or waiting. Crash chains and steering tickers are standing
// events; left armed they would keep the discrete-event engine alive
// after the campaign's real work has drained.
func (c *Coordinator) quiesce() {
	if c.active > 0 || len(c.waiting) > 0 {
		return
	}
	for _, p := range c.pilots {
		p.StopFaultInjection()
	}
	if c.steerer != nil {
		c.steerer.Stop()
	}
	if c.onDone != nil && !c.doneFired {
		c.doneFired = true
		c.onDone()
	}
}

// decide is the IMPRESS decision-making step: evaluate the concluded
// cycle against the global pool and, when warranted, generate a
// refinement sub-pipeline over the same backbone with more explorative
// settings.
func (c *Coordinator) decide(pl *pipeline.Pipeline, traj pipeline.Trajectory, out pipeline.Outcome) {
	pol := c.cfg.Sub
	if !pol.Enabled || pl.Sub {
		return
	}
	lowQuality := c.pool.IsLowQualityAtIteration(traj.Metrics, traj.Generation, pol.Quantile, pol.MinPoolSamples)
	died := out.Terminated && pol.SpawnOnTermination
	if !lowQuality && !died {
		return
	}
	if c.subPerTarget[traj.Target] >= pol.MaxPerTarget {
		return
	}
	if pol.MaxTotal > 0 && c.subPipelines >= pol.MaxTotal {
		return
	}
	target := c.targetByName(traj.Target)
	if target == nil || traj.Input == nil {
		return
	}

	c.nextSubID++
	id := fmt.Sprintf("sub.%04d", c.nextSubID)
	params := c.cfg.Pipeline
	params.Cycles = pol.Cycles
	params.MPNN.Temperature *= pol.TempFactor
	params.MPNN.NumSequences += pol.ExtraSequences
	if pol.ModelFactor > 1 {
		params.Fold.NumModels *= pol.ModelFactor
	}
	params.Seed = xrand.Derive(c.cfg.Seed, "sub:"+id)
	sub, err := pipeline.New(id, target, traj.Input, params)
	if err != nil {
		c.errs = append(c.errs, err)
		return
	}
	sub.Sub = true
	c.pipelines[id] = sub
	c.subPipelines++
	c.subPerTarget[traj.Target]++
	reason := "low quality vs iteration cohort"
	if died {
		reason = "parent terminated"
	}
	c.publish(EventSubPipelineSpawned, sub, nil, fmt.Sprintf("%s (re-processing %s cycle %d)", reason, traj.Target, traj.Cycle))
	c.waiting = append(c.waiting, sub)
	c.startWaiting()
}

func (c *Coordinator) targetByName(name string) *workload.Target {
	for _, tg := range c.targets {
		if tg.Name == name {
			return tg
		}
	}
	return nil
}

// RunAdaptive executes an IM-RP campaign over the targets.
func RunAdaptive(targets []*workload.Target, cfg Config) (*Result, error) {
	coord, err := NewCoordinator(targets, cfg)
	if err != nil {
		return nil, err
	}
	res, err := coord.Run()
	if err != nil {
		return nil, err
	}
	res.Approach = "IM-RP"
	return res, nil
}

// ForControl returns the configuration with the control protocol's
// execution policy forced: sequential pipelines and no sub-pipeline
// generation. Pipeline parameters and the scheduling policy are left as
// configured; ControlConfig picks fifo.
func (cfg Config) ForControl() Config {
	cfg.MaxConcurrent = 1
	cfg.Sub.Enabled = false
	return cfg
}

// RunControl executes a CONT-V campaign: it forces sequential execution,
// disables adaptivity-dependent coordinator features, and leaves the
// pipeline parameters and the scheduling policy as configured (callers
// normally pass ControlConfig, which picks fifo).
func RunControl(targets []*workload.Target, cfg Config) (*Result, error) {
	coord, err := NewCoordinator(targets, cfg.ForControl())
	if err != nil {
		return nil, err
	}
	res, err := coord.Run()
	if err != nil {
		return nil, err
	}
	res.Approach = "CONT-V"
	return res, nil
}
