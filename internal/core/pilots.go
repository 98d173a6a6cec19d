package core

import (
	"fmt"

	"impress/internal/cluster"
	"impress/internal/fault"
	"impress/internal/pilot"
)

// ResourceClass buckets tasks by the hardware they occupy, the unit of
// placement for heterogeneous multi-pilot campaigns. The paper's ParaFold
// split is exactly this distinction: MSA/ranking/FASTA/metrics stages are
// CPU-class, MPNN sampling and AlphaFold inference are GPU-class.
type ResourceClass int

const (
	// ClassCPU marks tasks that request no GPUs.
	ClassCPU ResourceClass = iota
	// ClassGPU marks tasks that request at least one GPU.
	ClassGPU
)

func (c ResourceClass) String() string {
	switch c {
	case ClassCPU:
		return "cpu"
	case ClassGPU:
		return "gpu"
	default:
		return fmt.Sprintf("ResourceClass(%d)", int(c))
	}
}

// ClassOf derives a task's resource class from its allocation request.
func ClassOf(td pilot.TaskDescription) ResourceClass {
	if td.GPUs > 0 {
		return ClassGPU
	}
	return ClassCPU
}

// PilotSpec declares one pilot of a campaign: a named resource partition
// plus the task classes it serves. A campaign with an empty Config.Pilots
// runs the classic single pilot over Config.Machine.
type PilotSpec struct {
	// Name labels the pilot and salts its seed stream. Must be unique
	// within a campaign.
	Name string
	// Machine is the resource partition this pilot acquires.
	Machine cluster.Spec
	// Nodes, when non-empty, gives every node an explicit (possibly
	// heterogeneous) capacity — a generated fleet. Machine.Nodes must
	// equal len(Nodes); Machine's per-node fields then describe the
	// nominal envelope (fleet.SpecFor). Empty keeps the homogeneous
	// partition Machine describes.
	Nodes []cluster.NodeCapacity
	// Serves restricts the task classes routed here; empty serves all.
	Serves []ResourceClass
	// Recovery overrides the campaign's fault-recovery policy for this
	// pilot (internal/fault name); empty inherits Config.Recovery.
	Recovery string
	// Fault overrides the campaign's failure models for this pilot; nil
	// inherits Config.Fault. The preempt-sweep scenario uses this to
	// bound a single pilot's walltime while the rest of the fleet
	// survives to absorb its drained work.
	Fault *fault.Spec
}

// recoveryFor resolves the fault-recovery policy this pilot runs under:
// per-pilot override, else campaign-wide, else empty (the pilot layer
// defaults to "none").
func (ps PilotSpec) recoveryFor(cfg Config) string {
	if ps.Recovery != "" {
		return ps.Recovery
	}
	return cfg.Recovery
}

// faultFor resolves the failure models this pilot runs under: its own
// override when set, else the campaign-wide spec.
func (ps PilotSpec) faultFor(cfg Config) fault.Spec {
	if ps.Fault != nil {
		return *ps.Fault
	}
	return cfg.Fault
}

// faultEnabled reports whether any pilot of the campaign runs failure
// models — the campaign-wide spec or any per-pilot override.
func (cfg Config) faultEnabled() bool {
	if cfg.Fault.Enabled() {
		return true
	}
	for _, ps := range cfg.Pilots {
		if ps.Fault != nil && ps.Fault.Enabled() {
			return true
		}
	}
	return false
}

// TotalCores returns the pilot's aggregate core capacity: the sum over
// explicit fleet nodes when present, else the machine spec's total.
func (ps PilotSpec) TotalCores() int {
	if len(ps.Nodes) == 0 {
		return ps.Machine.TotalCores()
	}
	t := 0
	for _, nc := range ps.Nodes {
		t += nc.Cores
	}
	return t
}

// TotalGPUs returns the pilot's aggregate GPU capacity, fleet-aware like
// TotalCores.
func (ps PilotSpec) TotalGPUs() int {
	if len(ps.Nodes) == 0 {
		return ps.Machine.TotalGPUs()
	}
	t := 0
	for _, nc := range ps.Nodes {
		t += nc.GPUs
	}
	return t
}

// ServesClass reports whether the spec accepts tasks of class c.
func (ps PilotSpec) ServesClass(c ResourceClass) bool {
	if len(ps.Serves) == 0 {
		return true
	}
	for _, s := range ps.Serves {
		if s == c {
			return true
		}
	}
	return false
}

// SplitPilots partitions a machine into the paper's heterogeneous
// placement: a CPU pilot serving the MSA/rank/fasta/metrics stages and a
// GPU pilot serving sequence sampling and structure inference. The GPU
// pilot keeps two host cores per GPU and a quarter of node memory.
func SplitPilots(machine cluster.Spec) ([]PilotSpec, error) {
	cpu, gpu, err := cluster.SplitCPUGPU(machine, 2*machine.GPUsPerNode, machine.MemGBPerNode/4)
	if err != nil {
		return nil, err
	}
	return []PilotSpec{
		{Name: "pilot-cpu", Machine: cpu, Serves: []ResourceClass{ClassCPU}},
		{Name: "pilot-gpu", Machine: gpu, Serves: []ResourceClass{ClassGPU}},
	}, nil
}

// validatePilots checks a campaign's resolved pilot set: machines valid,
// names unique, every task class served, and GPU-serving pilots actually
// holding GPUs.
func validatePilots(specs []PilotSpec) error {
	names := make(map[string]bool, len(specs))
	served := make(map[ResourceClass]bool)
	for _, ps := range specs {
		if ps.Name == "" {
			return fmt.Errorf("core: unnamed pilot spec")
		}
		if names[ps.Name] {
			return fmt.Errorf("core: duplicate pilot name %q", ps.Name)
		}
		names[ps.Name] = true
		if err := ps.Machine.Validate(); err != nil {
			return err
		}
		if len(ps.Nodes) > 0 && len(ps.Nodes) != ps.Machine.Nodes {
			return fmt.Errorf("core: pilot %q declares %d nodes but %d explicit capacities", ps.Name, ps.Machine.Nodes, len(ps.Nodes))
		}
		if ps.ServesClass(ClassGPU) && len(ps.Serves) > 0 && ps.TotalGPUs() == 0 {
			return fmt.Errorf("core: pilot %q serves GPU tasks but has no GPUs", ps.Name)
		}
		for _, c := range []ResourceClass{ClassCPU, ClassGPU} {
			if ps.ServesClass(c) {
				served[c] = true
			}
		}
	}
	if !served[ClassCPU] || !served[ClassGPU] {
		return fmt.Errorf("core: pilot set %v leaves a task class unserved", specs)
	}
	return nil
}

// pilotSpecs resolves the campaign's pilot set: explicit Pilots, or the
// classic single pilot over Machine. The default name "pilot" keeps the
// single-pilot seed stream identical to the pre-multi-pilot coordinator.
func (cfg Config) pilotSpecs() []PilotSpec {
	if len(cfg.Pilots) > 0 {
		return cfg.Pilots
	}
	return []PilotSpec{{Name: "pilot", Machine: cfg.Machine}}
}

// route assigns an unplaced task description to the first live pilot
// serving its resource class — a pilot that expired (fault-model
// walltime) or is draining toward expiry takes no new work. When every
// serving pilot is gone the first one is still targeted so the
// submission fails through the normal fail-fast path. With a single
// pilot the description is left untargeted, preserving the classic
// submission path.
func (c *Coordinator) route(td *pilot.TaskDescription) {
	if td.Pilot != "" || len(c.pilots) <= 1 {
		return
	}
	class := ClassOf(*td)
	fallback := ""
	for i, ps := range c.specs {
		if !ps.ServesClass(class) {
			continue
		}
		p := c.pilots[i]
		if p.State() == pilot.PilotDone || p.Draining() {
			if fallback == "" {
				fallback = p.ID
			}
			continue
		}
		td.Pilot = p.ID
		return
	}
	td.Pilot = fallback
}
