package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"impress/internal/simclock"
	"impress/internal/trace"
)

// chromeEvent is one entry of the Trace Event Format's traceEvents
// array. Structs (not maps) keep field order — and therefore output
// bytes — deterministic.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Cat  string         `json:"cat,omitempty"`
	ID   string         `json:"id,omitempty"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeFile struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

func durUsec(from, to simclock.Time) *float64 {
	d := float64(to-from) / 1e3
	return &d
}

// referenceChromeTrace builds every event, each with a map of boxed
// args, and hands the whole document to encoding/json. The differential
// tests hold the streaming WriteChromeTrace to its bytes.
func referenceChromeTrace(w io.Writer, campaigns []CampaignTrace) error {
	var events []chromeEvent
	nextPid := 1
	for _, c := range campaigns {
		pids := make([]int, len(c.Pilots))
		for i := range c.Pilots {
			pids[i] = nextPid
			nextPid++
		}
		campaignPid := nextPid
		nextPid++

		ordinalOf := func(pilotID string) int {
			for i, p := range c.Pilots {
				if p == pilotID {
					return i
				}
			}
			return 0
		}
		pidOf := func(ordinal int) int {
			if ordinal < 0 || ordinal >= len(pids) {
				return campaignPid
			}
			return pids[ordinal]
		}

		// Sorted task view; nodes seen per pilot drive thread metadata.
		tasks := append([]trace.TaskRecord(nil), c.Tasks...)
		sort.Slice(tasks, func(i, j int) bool {
			if tasks[i].Submitted != tasks[j].Submitted {
				return tasks[i].Submitted < tasks[j].Submitted
			}
			return tasks[i].ID < tasks[j].ID
		})
		nodesByPilot := make([][]int, len(c.Pilots))
		seen := make(map[[2]int]bool)
		noteNode := func(ordinal, node int) {
			if node < 0 || ordinal < 0 || ordinal >= len(nodesByPilot) {
				return
			}
			k := [2]int{ordinal, node}
			if !seen[k] {
				seen[k] = true
				nodesByPilot[ordinal] = append(nodesByPilot[ordinal], node)
			}
		}
		for _, t := range tasks {
			noteNode(ordinalOf(t.Pilot), t.Node)
		}
		if c.Data != nil {
			for _, in := range c.Data.Instants {
				noteNode(in.Pilot, in.Node)
			}
		}

		// Process/thread metadata.
		for i, p := range c.Pilots {
			events = append(events, chromeEvent{
				Name: "process_name", Ph: "M", Pid: pids[i], Tid: 0,
				Args: map[string]any{"name": c.Label + "/" + p},
			})
			events = append(events, chromeEvent{
				Name: "thread_name", Ph: "M", Pid: pids[i], Tid: 0,
				Args: map[string]any{"name": "queue"},
			})
			sort.Ints(nodesByPilot[i])
			for _, n := range nodesByPilot[i] {
				events = append(events, chromeEvent{
					Name: "thread_name", Ph: "M", Pid: pids[i], Tid: n + 1,
					Args: map[string]any{"name": fmt.Sprintf("node %d", n)},
				})
			}
		}
		events = append(events, chromeEvent{
			Name: "process_name", Ph: "M", Pid: campaignPid, Tid: 0,
			Args: map[string]any{"name": c.Label + "/campaign"},
		})

		// Task spans: a nestable async tree per attempt plus an "X" run
		// slice on the node's thread track.
		for _, t := range tasks {
			pid := pidOf(ordinalOf(t.Pilot))
			id := t.ID
			class := "cpu"
			if t.GPUs > 0 {
				class = "gpu"
			}
			args := map[string]any{
				"attempt": t.Attempt, "class": class, "cores": t.Cores,
				"gpus": t.GPUs, "state": t.State,
			}
			if t.Stage != "" {
				args["stage"] = t.Stage
			}
			if t.Pipeline != "" {
				args["pipeline"] = t.Pipeline
			}
			if t.Origin != "" && t.Origin != t.ID {
				args["origin"] = t.Origin
			}
			if t.Fault != "" {
				args["fault"] = t.Fault
			}
			if t.Node >= 0 {
				args["node"] = t.Node
			}
			open := func(name string, ts simclock.Time, a map[string]any) {
				events = append(events, chromeEvent{
					Name: name, Ph: "b", Ts: usec(ts), Pid: pid, Tid: 0,
					Cat: "task", ID: id, Args: a,
				})
			}
			clos := func(name string, ts simclock.Time) {
				events = append(events, chromeEvent{
					Name: name, Ph: "e", Ts: usec(ts), Pid: pid, Tid: 0,
					Cat: "task", ID: id,
				})
			}
			open(t.Name, t.Submitted, args)
			if t.Placed && t.SetupAt >= t.Submitted && t.EndedAt >= t.SetupAt {
				open("queued", t.Submitted, nil)
				clos("queued", t.SetupAt)
				if t.RunAt >= t.SetupAt && t.EndedAt >= t.RunAt {
					open("setup", t.SetupAt, nil)
					clos("setup", t.RunAt)
					open("run", t.RunAt, nil)
					clos("run", t.EndedAt)
					if t.Node >= 0 {
						events = append(events, chromeEvent{
							Name: t.Name, Ph: "X", Ts: usec(t.RunAt),
							Dur: durUsec(t.RunAt, t.EndedAt),
							Pid: pid, Tid: t.Node + 1, Cat: "run",
							Args: map[string]any{"id": t.ID, "attempt": t.Attempt},
						})
					}
				} else {
					open("setup", t.SetupAt, nil)
					clos("setup", t.EndedAt)
				}
			} else {
				open("queued", t.Submitted, nil)
				clos("queued", t.EndedAt)
			}
			clos(t.Name, t.EndedAt)
		}

		// Queue-depth counters.
		for i, series := range c.QueueSeries {
			for _, p := range series {
				events = append(events, chromeEvent{
					Name: "queue depth", Ph: "C", Ts: usec(p.T),
					Pid: pidOf(i), Tid: 0,
					Args: map[string]any{"depth": p.Value},
				})
			}
		}

		if c.Data != nil {
			// Metric gauge series, routed to the owning pilot when the
			// name carries a "<pilotID>/" prefix.
			names := make([]string, 0, len(c.Data.Series))
			for name := range c.Data.Series {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				pid, short := campaignPid, name
				if i := strings.IndexByte(name, '/'); i > 0 {
					for ord, p := range c.Pilots {
						if p == name[:i] {
							pid, short = pids[ord], name[i+1:]
							break
						}
					}
				}
				for _, pt := range c.Data.Series[name] {
					events = append(events, chromeEvent{
						Name: short, Ph: "C", Ts: usec(pt.T), Pid: pid, Tid: 0,
						Args: map[string]any{"value": pt.Value},
					})
				}
			}
			// Instant events.
			for _, in := range c.Data.Instants {
				tid := 0
				if in.Node >= 0 {
					tid = in.Node + 1
				}
				args := map[string]any{}
				if in.Detail != "" {
					args["detail"] = in.Detail
				}
				events = append(events, chromeEvent{
					Name: in.Kind, Ph: "i", Ts: usec(in.T),
					Pid: pidOf(in.Pilot), Tid: tid, S: "p", Args: args,
				})
			}
			// Steering ticks on the campaign track.
			for _, tk := range c.Data.Ticks {
				var sb strings.Builder
				for i, p := range tk.Pilots {
					if i > 0 {
						sb.WriteString(" | ")
					}
					fmt.Fprintf(&sb, "p%d q=%d(%+d) run=%d nodes=%d idle=%d util=%.2f",
						i, p.Queue, p.QueueDelta, p.Running, p.Nodes, p.Idle, p.UtilWindow)
					if p.Frozen {
						sb.WriteString(" frozen")
					}
				}
				args := map[string]any{"stats": sb.String()}
				if len(tk.Actions) > 0 {
					args["actions"] = strings.Join(tk.Actions, "; ")
				}
				events = append(events, chromeEvent{
					Name: "steer-tick", Ph: "i", Ts: usec(tk.T),
					Pid: campaignPid, Tid: 0, S: "p", Args: args,
				})
			}
		}
	}

	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	return enc.Encode(chromeFile{TraceEvents: events, DisplayTimeUnit: "ms"})
}

// referenceValidateChromeTrace decodes every event with one
// json.Unmarshal into a slice, then checks them in file order. The
// differential tests hold the streaming ValidateChromeTrace to its
// verdicts and messages.
func referenceValidateChromeTrace(data []byte) error {
	var f struct {
		TraceEvents []struct {
			Name string   `json:"name"`
			Ph   string   `json:"ph"`
			Ts   *float64 `json:"ts"`
			Dur  *float64 `json:"dur"`
			Pid  *int     `json:"pid"`
			Cat  string   `json:"cat"`
			ID   string   `json:"id"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return fmt.Errorf("chrome trace: %w", err)
	}
	if len(f.TraceEvents) == 0 {
		return fmt.Errorf("chrome trace: no events")
	}
	type frame struct {
		name string
		ts   float64
	}
	// An async track is identified by all three fields, kept apart: a
	// joined string would merge cat "a/b" + id "c" with cat "a" + id "b/c".
	type track struct {
		pid     int
		cat, id string
	}
	stacks := make(map[track][]frame)
	var opened []track // tracks in first-seen order, for a stable report
	for i, ev := range f.TraceEvents {
		if ev.Ph == "" || ev.Pid == nil {
			return fmt.Errorf("chrome trace: event %d missing ph/pid", i)
		}
		if ev.Ph != "M" && ev.Ts == nil {
			return fmt.Errorf("chrome trace: event %d missing ts", i)
		}
		switch ev.Ph {
		case "X":
			if ev.Dur == nil || *ev.Dur < 0 {
				return fmt.Errorf("chrome trace: event %d (%s) bad dur", i, ev.Name)
			}
		case "b", "e":
			key := track{*ev.Pid, ev.Cat, ev.ID}
			st, seen := stacks[key]
			if ev.Ph == "b" {
				if len(st) > 0 && *ev.Ts < st[len(st)-1].ts {
					return fmt.Errorf("chrome trace: event %d (%s) opens before parent", i, ev.Name)
				}
				if !seen {
					opened = append(opened, key)
				}
				stacks[key] = append(st, frame{ev.Name, *ev.Ts})
				continue
			}
			if len(st) == 0 {
				return fmt.Errorf("chrome trace: event %d closes %q with empty stack", i, ev.Name)
			}
			top := st[len(st)-1]
			if top.name != ev.Name {
				return fmt.Errorf("chrome trace: event %d closes %q but %q is open", i, ev.Name, top.name)
			}
			if *ev.Ts < top.ts {
				return fmt.Errorf("chrome trace: event %d closes %q before it opened", i, ev.Name)
			}
			stacks[key] = st[:len(st)-1]
		}
	}
	for _, key := range opened {
		if st := stacks[key]; len(st) > 0 {
			return fmt.Errorf("chrome trace: span %q on pid %d cat %q id %q never closed",
				st[len(st)-1].name, key.pid, key.cat, key.id)
		}
	}
	return nil
}
