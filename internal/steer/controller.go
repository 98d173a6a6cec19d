package steer

import (
	"fmt"
	"time"

	"impress/internal/cluster"
	"impress/internal/fault"
	"impress/internal/simclock"
	"impress/internal/telemetry"
)

// Elastic is the slice of the pilot mechanism the controller drives.
// *pilot.Pilot implements it; the interface keeps this package below
// internal/pilot in the dependency order (pilot validates steering
// names through this package).
type Elastic interface {
	// Active reports whether the pilot currently schedules tasks.
	Active() bool
	// QueueLen returns the number of tasks waiting for resources.
	QueueLen() int
	// RunningCount returns the number of placed tasks.
	RunningCount() int
	// QueuedRequests returns the allocation requests of the queued
	// tasks, in queue order.
	QueuedRequests() []cluster.Request
	// Cluster exposes the pilot's resource ledger.
	Cluster() *cluster.Cluster
	// ShrinkNode transfers the identified idle node out of the pilot,
	// returning its capacity and its detached crash chain (nil without a
	// crash model) — node fault ownership travels with the node.
	ShrinkNode(id int) (cluster.NodeCapacity, *fault.Chain, error)
	// GrowNode transfers a node of the given capacity into the pilot,
	// handing the donor's crash chain to the receiver's fault injector.
	GrowNode(nc cluster.NodeCapacity, ch *fault.Chain) int
	// EvictNode checkpoints and evicts every task resident on the
	// identified node (requeueing each with its saved progress, hinted
	// at the resumeOn pilot), then transfers the node out like
	// ShrinkNode. Only preemptive policies reach this.
	EvictNode(id int, resumeOn string) (cluster.NodeCapacity, *fault.Chain, error)
	// PilotID returns the pilot's stable identifier, used as the
	// resume hint for work evicted toward it.
	PilotID() string
}

// preemptCapable marks a policy whose transfers may drain a busy node
// through Elastic.EvictNode when no idle node fits. Policies that do not
// implement it (or return false) keep the non-idle veto semantics.
type preemptCapable interface{ Preemptive() bool }

// Move records one applied node transfer.
type Move struct {
	// At is the virtual time of the transfer.
	At simclock.Time
	// From and To are pilot indices in controller order.
	From, To int
	// Node is the transferred capacity.
	Node cluster.NodeCapacity
}

// Veto reasons: why the controller rejected a policy's proposed
// transfer. Stable strings — they appear in reports and telemetry.
const (
	VetoBadProposal = "bad-proposal"
	VetoInactive    = "inactive"
	VetoLastNode    = "last-node"
	VetoNoCapacity  = "no-fitting-capacity"
	VetoNonIdle     = "non-idle"
)

// Veto records one rejected transfer proposal and why.
type Veto struct {
	// At is the virtual time of the observation that vetoed the move.
	At simclock.Time
	// From and To are pilot indices as the policy proposed them (possibly
	// out of range, for bad-proposal vetoes).
	From, To int
	// Reason is one of the Veto* constants.
	Reason string
}

// Controller samples per-pilot pressure on the virtual timeline and
// applies the steering policy's transfers through the pilots'
// grow/shrink mechanism. It enforces, independently of the policy:
//
//   - only transferable nodes move (up, no in-flight allocations —
//     cluster.RemoveNode re-checks),
//   - a donor never gives up its last operational (up) node,
//   - a node moves only if the receiver has a queued task its capacity
//     could actually host (no stranding a 0-GPU node on a GPU queue),
//   - inactive pilots neither donate nor receive.
type Controller struct {
	engine *simclock.Engine
	pilots []Elastic
	pol    Policy
	period time.Duration

	ticker *simclock.Ticker
	moves  []Move
	vetoes []Veto
	onMove func(Move)

	stats []Stat // scratch, reused per observation

	// Derivative state feeding Stat's windowed signals, maintained
	// incrementally across observations (one float and one int per
	// pilot — no history kept).
	utilWin   []float64
	prevQueue []int
	observed  bool

	// tel, when set, receives a log of every tick's stats and each
	// decision or veto; nil keeps the controller telemetry-free.
	tel *telemetry.Recorder

	stopped bool
}

// SetTelemetry attaches a telemetry recorder; every subsequent tick logs
// its observed stats, applied moves, and vetoes into it.
func (c *Controller) SetTelemetry(tel *telemetry.Recorder) { c.tel = tel }

// NewController builds a controller over the pilots; onMove (optional)
// observes every applied transfer.
func NewController(engine *simclock.Engine, pilots []Elastic, pol Policy, period time.Duration, onMove func(Move)) *Controller {
	if engine == nil || pol == nil {
		panic("steer: controller needs an engine and a policy")
	}
	if len(pilots) < 2 {
		panic("steer: steering needs at least two pilots")
	}
	if period <= 0 {
		period = DefaultPeriod
	}
	return &Controller{
		engine:    engine,
		pilots:    pilots,
		pol:       pol,
		period:    period,
		onMove:    onMove,
		stats:     make([]Stat, len(pilots)),
		utilWin:   make([]float64, len(pilots)),
		prevQueue: make([]int, len(pilots)),
	}
}

// Start arms the observation ticker. The ticker keeps the event queue
// non-empty, so the campaign owner must Stop the controller once the
// real work has drained (exactly like fault injectors).
func (c *Controller) Start() {
	if c.ticker != nil || c.stopped {
		return
	}
	c.ticker = c.engine.Every(c.period, func(simclock.Time) { c.observe() })
}

// Stop retires the controller; further observations are no-ops.
func (c *Controller) Stop() {
	if c.stopped {
		return
	}
	c.stopped = true
	if c.ticker != nil {
		c.ticker.Stop()
	}
}

// Transfers returns the number of node transfers applied so far.
func (c *Controller) Transfers() int { return len(c.moves) }

// Moves returns a copy of the applied transfer log.
func (c *Controller) Moves() []Move { return append([]Move(nil), c.moves...) }

// Vetoes returns a copy of the rejected-proposal log.
func (c *Controller) Vetoes() []Veto { return append([]Veto(nil), c.vetoes...) }

// VetoCount returns the number of proposals vetoed so far.
func (c *Controller) VetoCount() int { return len(c.vetoes) }

// observe is one steering decision point: snapshot pressure, ask the
// policy, apply what survives validation.
func (c *Controller) observe() {
	if c.stopped {
		return
	}
	for i, p := range c.pilots {
		st := Stat{Frozen: !p.Active()}
		if p.Active() {
			clu := p.Cluster()
			st.Queue = p.QueueLen()
			st.Running = p.RunningCount()
			st.Nodes = clu.UpNodeCount()
			st.Idle = len(clu.TransferableNodes())
			if cores := clu.CapCores(); cores > 0 {
				st.Util = float64(cores-clu.FreeCores()) / float64(cores)
			}
		}
		// Windowed derivatives, maintained incrementally. The first
		// observation seeds the EWMA and reports a zero delta.
		if c.observed {
			c.utilWin[i] = 0.5*c.utilWin[i] + 0.5*st.Util
			st.QueueDelta = st.Queue - c.prevQueue[i]
		} else {
			c.utilWin[i] = st.Util
		}
		st.UtilWindow = c.utilWin[i]
		c.prevQueue[i] = st.Queue
		c.stats[i] = st
	}
	c.observed = true

	movesBefore, vetoesBefore := len(c.moves), len(c.vetoes)
	for _, tr := range c.pol.Decide(c.stats) {
		c.apply(tr)
	}

	if c.tel.Enabled() {
		samples := make([]telemetry.PilotSample, len(c.stats))
		for i, st := range c.stats {
			samples[i] = telemetry.PilotSample{
				Queue: st.Queue, Running: st.Running, Nodes: st.Nodes,
				Idle: st.Idle, Frozen: st.Frozen, Util: st.Util,
				UtilWindow: st.UtilWindow, QueueDelta: st.QueueDelta,
			}
		}
		var actions []string
		for _, mv := range c.moves[movesBefore:] {
			actions = append(actions, fmt.Sprintf("move %d->%d (%dc/%dg/%dGB)",
				mv.From, mv.To, mv.Node.Cores, mv.Node.GPUs, mv.Node.MemGB))
		}
		for _, v := range c.vetoes[vetoesBefore:] {
			actions = append(actions, fmt.Sprintf("veto %d->%d: %s", v.From, v.To, v.Reason))
		}
		c.tel.Tick(c.engine.Now(), samples, actions)
	}
}

// apply validates and executes one proposed transfer. Invalid proposals
// are skipped: the policy layer may be wrong about the world (its
// snapshot ages as earlier transfers of the same observation land), the
// mechanism may not.
func (c *Controller) apply(tr Transfer) {
	if tr.From < 0 || tr.From >= len(c.pilots) || tr.To < 0 || tr.To >= len(c.pilots) || tr.From == tr.To {
		c.veto(tr, VetoBadProposal)
		return
	}
	from, to := c.pilots[tr.From], c.pilots[tr.To]
	if !from.Active() || !to.Active() {
		c.veto(tr, VetoInactive)
		return
	}
	clu := from.Cluster()
	if clu.UpNodeCount() <= 1 {
		// Donating the last operational node would leave the pilot with
		// zero schedulable capacity (a crashed node still "belonging" to
		// it does not count until repair).
		c.veto(tr, VetoLastNode)
		return
	}
	id, ok := c.usefulNode(clu, to)
	if !ok {
		if c.preemptive() {
			if id, ok = c.busyUsefulNode(clu, to); ok {
				c.drain(tr, from, to, id)
				return
			}
		}
		c.veto(tr, VetoNoCapacity)
		return
	}
	nc, ch, err := from.ShrinkNode(id)
	if err != nil {
		// The node stopped being idle between snapshot and application;
		// skip rather than chase another — unless the policy is
		// preemptive, in which case the running work is checkpointed,
		// evicted, and resumed on the receiver.
		if c.preemptive() {
			c.drain(tr, from, to, id)
			return
		}
		c.veto(tr, VetoNonIdle)
		return
	}
	c.grow(tr, to, nc, ch, false)
}

// preemptive reports whether the active policy's transfers may drain
// busy nodes instead of taking the non-idle veto.
func (c *Controller) preemptive() bool {
	p, ok := c.pol.(preemptCapable)
	return ok && p.Preemptive()
}

// drain executes one preemptive transfer: checkpoint and evict the work
// resident on the donor's node, move the node, and let the evicted
// attempts resume on the receiver.
func (c *Controller) drain(tr Transfer, from, to Elastic, id int) {
	nc, ch, err := from.EvictNode(id, to.PilotID())
	if err != nil {
		c.veto(tr, VetoNonIdle)
		return
	}
	c.grow(tr, to, nc, ch, true)
}

// grow completes a validated transfer: hand the node to the receiver
// and log the move.
func (c *Controller) grow(tr Transfer, to Elastic, nc cluster.NodeCapacity, ch *fault.Chain, drained bool) {
	to.GrowNode(nc, ch)
	mv := Move{At: c.engine.Now(), From: tr.From, To: tr.To, Node: nc}
	c.moves = append(c.moves, mv)
	if c.tel.Enabled() {
		detail := fmt.Sprintf("%d->%d %dc/%dg/%dGB", tr.From, tr.To, nc.Cores, nc.GPUs, nc.MemGB)
		if drained {
			detail += " drained"
		}
		c.tel.Instant(mv.At, telemetry.KindSteerMove, tr.To, -1, detail)
	}
	if c.onMove != nil {
		c.onMove(mv)
	}
}

// veto logs one rejected proposal.
func (c *Controller) veto(tr Transfer, reason string) {
	v := Veto{At: c.engine.Now(), From: tr.From, To: tr.To, Reason: reason}
	c.vetoes = append(c.vetoes, v)
	if c.tel.Enabled() {
		pilot := tr.To
		if pilot < 0 || pilot >= len(c.pilots) {
			pilot = -1
		}
		c.tel.Instant(v.At, telemetry.KindSteerVeto, pilot, -1,
			fmt.Sprintf("%d->%d: %s", tr.From, tr.To, reason))
	}
}

// usefulNode picks the donor's lowest-ID transferable node whose
// capacity could host at least one of the receiver's queued tasks.
// Shipping a node the receiver cannot use would strand capacity where
// neither pilot can reach it.
func (c *Controller) usefulNode(donor *cluster.Cluster, to Elastic) (int, bool) {
	queued := to.QueuedRequests()
	for _, id := range donor.TransferableNodes() {
		nc := donor.NodeCap(id)
		if fitsAny(nc, queued) {
			return id, true
		}
	}
	return -1, false
}

// busyUsefulNode is usefulNode without the idle requirement: the
// donor's lowest-ID up node whose capacity could host one of the
// receiver's queued tasks, whatever is currently running on it. Only
// the preemptive drain path consults it.
func (c *Controller) busyUsefulNode(donor *cluster.Cluster, to Elastic) (int, bool) {
	queued := to.QueuedRequests()
	for id := 0; id < donor.NodeCount(); id++ {
		if donor.NodeIsRemoved(id) || donor.NodeIsDown(id) {
			continue
		}
		if fitsAny(donor.NodeCap(id), queued) {
			return id, true
		}
	}
	return -1, false
}

// fitsAny reports whether a node of the given capacity could host at
// least one of the queued requests.
func fitsAny(nc cluster.NodeCapacity, queued []cluster.Request) bool {
	for _, r := range queued {
		if r.Cores <= nc.Cores && r.GPUs <= nc.GPUs && r.MemGB <= nc.MemGB {
			return true
		}
	}
	return false
}
