package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"unicode/utf8"

	"impress/internal/simclock"
	"impress/internal/trace"
)

// CampaignTrace is the exporter's view of one finished campaign — a
// neutral bundle so the telemetry package needs no dependency on core.
type CampaignTrace struct {
	// Label names the campaign in process names ("adpt/seed42").
	Label string
	// Pilots names the pilots in ordinal order. A gauge series named
	// "<pilot>/<gauge>" goes on that pilot's track.
	Pilots []string
	// Tasks is the recorded attempt timeline.
	Tasks []trace.TaskRecord
	// QueueSeries holds per-pilot queue-depth step series (ordinal order).
	QueueSeries [][]trace.Point
	// Data carries instants/ticks/metrics; nil when telemetry was off.
	Data *Data
}

func usec(t simclock.Time) float64 { return float64(t) / 1e3 }

// WriteChromeTrace writes the campaigns as Chrome Trace Event Format
// JSON (the catapult/Perfetto interchange format). Layout: one process
// per pilot; thread 0 carries queue-depth counters, instants, and the
// nestable async span tree of every task attempt (span → queued/setup/
// run children, keyed by attempt ID so they balance and nest by
// construction); threads n+1 are per-node occupancy tracks of plain
// "X" run slices. Everything is emitted in a fixed order from sorted
// inputs, so output bytes are deterministic per seed.
//
// Each event is written as it is produced, into one reused buffer that
// is handed to w whenever it fills, so memory does not grow with the
// number of events. The bytes are those encoding/json writes with
// SetEscapeHTML(false), ending in a newline.
func WriteChromeTrace(w io.Writer, campaigns []CampaignTrace) error {
	tw := &traceWriter{w: w, b: make([]byte, 0, flushAt+1024)}
	tw.b = append(tw.b, `{"traceEvents":`...)
	nextPid := 1
	for i := range campaigns {
		nextPid = tw.campaign(&campaigns[i], nextPid)
	}
	if tw.events == 0 {
		tw.b = append(tw.b, "null"...)
	} else {
		tw.b = append(tw.b, ']')
	}
	tw.b = append(tw.b, `,"displayTimeUnit":"ms"}`+"\n"...)
	tw.flush()
	return tw.err
}

// flushAt is the buffered size at which the writer hands its bytes on.
const flushAt = 64 << 10

// traceWriter streams the traceEvents array one event at a time.
type traceWriter struct {
	w      io.Writer
	b      []byte
	err    error // the first write or encoding error; later writes are dropped
	events int
	args   bool // the current event has opened its args object
}

// event is the fixed part of one traceEvents entry. Its fields are
// written in declaration order; dur only for "X" events, and cat, id and
// s only when set.
type event struct {
	name, ph   string
	ts, dur    float64
	pid, tid   int
	cat, id, s string
}

// begin writes e up to its args, which follow as strArg/intArg calls in
// sorted key order; end closes the event.
func (tw *traceWriter) begin(e event) {
	b := tw.b
	if tw.events == 0 {
		b = append(b, '[')
	} else {
		b = append(b, ',')
	}
	tw.events++
	b = append(b, `{"name":`...)
	b = appendString(b, e.name)
	b = append(b, `,"ph":`...)
	b = appendString(b, e.ph)
	b = append(b, `,"ts":`...)
	b = tw.float(b, e.ts)
	if e.ph == "X" {
		b = append(b, `,"dur":`...)
		b = tw.float(b, e.dur)
	}
	b = append(b, `,"pid":`...)
	b = strconv.AppendInt(b, int64(e.pid), 10)
	b = append(b, `,"tid":`...)
	b = strconv.AppendInt(b, int64(e.tid), 10)
	if e.cat != "" {
		b = appendString(append(b, `,"cat":`...), e.cat)
	}
	if e.id != "" {
		b = appendString(append(b, `,"id":`...), e.id)
	}
	if e.s != "" {
		b = appendString(append(b, `,"s":`...), e.s)
	}
	tw.b = b
	tw.args = false
}

// key opens the args object on the event's first argument.
func (tw *traceWriter) key(k string) {
	if tw.args {
		tw.b = append(tw.b, ',', '"')
	} else {
		tw.b = append(tw.b, `,"args":{"`...)
		tw.args = true
	}
	tw.b = append(tw.b, k...)
	tw.b = append(tw.b, '"', ':')
}

func (tw *traceWriter) strArg(k, v string) {
	tw.key(k)
	tw.b = appendString(tw.b, v)
}

func (tw *traceWriter) intArg(k string, v int) {
	tw.key(k)
	tw.b = strconv.AppendInt(tw.b, int64(v), 10)
}

func (tw *traceWriter) end() {
	if tw.args {
		tw.b = append(tw.b, '}')
	}
	tw.b = append(tw.b, '}')
	if len(tw.b) >= flushAt {
		tw.flush()
	}
}

// span writes an argument-free "b"/"e" pair on a task's async track.
func (tw *traceWriter) span(pid int, id, name string, from, to simclock.Time) {
	tw.begin(event{name: name, ph: "b", ts: usec(from), pid: pid, cat: "task", id: id})
	tw.end()
	tw.begin(event{name: name, ph: "e", ts: usec(to), pid: pid, cat: "task", id: id})
	tw.end()
}

func (tw *traceWriter) float(b []byte, f float64) []byte {
	b, err := appendFloat(b, f)
	if err != nil && tw.err == nil {
		tw.err = err
	}
	return b
}

func (tw *traceWriter) flush() {
	if tw.err == nil {
		_, tw.err = tw.w.Write(tw.b)
	}
	tw.b = tw.b[:0]
}

// taskLess orders tasks by (Submitted, ID), the order Recorder.Tasks
// returns them in.
func taskLess(a, b *trace.TaskRecord) bool {
	if a.Submitted != b.Submitted {
		return a.Submitted < b.Submitted
	}
	return a.ID < b.ID
}

// campaign writes one campaign's events with pids from nextPid on, and
// returns the next free pid.
func (tw *traceWriter) campaign(c *CampaignTrace, nextPid int) int {
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

	// Sorted task view (copied only when the input is out of order);
	// nodes seen per pilot drive thread metadata.
	tasks := c.Tasks
	for i := 1; i < len(tasks); i++ {
		if taskLess(&tasks[i], &tasks[i-1]) {
			tasks = append([]trace.TaskRecord(nil), c.Tasks...)
			sort.Slice(tasks, func(i, j int) bool { return taskLess(&tasks[i], &tasks[j]) })
			break
		}
	}
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
	for i := range tasks {
		noteNode(ordinalOf(tasks[i].Pilot), tasks[i].Node)
	}
	if c.Data != nil {
		for _, in := range c.Data.Instants {
			noteNode(in.Pilot, in.Node)
		}
	}

	// Process/thread metadata. The label and pilot are escaped apart:
	// with an ASCII separator between them that gives the same bytes as
	// escaping their concatenation.
	processName := func(pid int, suffix string) {
		tw.begin(event{name: "process_name", ph: "M", pid: pid})
		tw.key("name")
		tw.b = append(appendEscaped(append(tw.b, '"'), c.Label), '/')
		tw.b = append(appendEscaped(tw.b, suffix), '"')
		tw.end()
	}
	for i, p := range c.Pilots {
		processName(pids[i], p)
		tw.begin(event{name: "thread_name", ph: "M", pid: pids[i]})
		tw.strArg("name", "queue")
		tw.end()
		sort.Ints(nodesByPilot[i])
		for _, n := range nodesByPilot[i] {
			tw.begin(event{name: "thread_name", ph: "M", pid: pids[i], tid: n + 1})
			tw.key("name")
			tw.b = append(strconv.AppendInt(append(tw.b, `"node `...), int64(n), 10), '"')
			tw.end()
		}
	}
	processName(campaignPid, "campaign")

	// Task spans: a nestable async tree per attempt plus an "X" run
	// slice on the node's thread track.
	for i := range tasks {
		t := &tasks[i]
		pid := pidOf(ordinalOf(t.Pilot))
		tw.begin(event{name: t.Name, ph: "b", ts: usec(t.Submitted), pid: pid, cat: "task", id: t.ID})
		class := "cpu"
		if t.GPUs > 0 {
			class = "gpu"
		}
		tw.intArg("attempt", t.Attempt)
		tw.strArg("class", class)
		tw.intArg("cores", t.Cores)
		if t.Fault != "" {
			tw.strArg("fault", t.Fault)
		}
		tw.intArg("gpus", t.GPUs)
		if t.Node >= 0 {
			tw.intArg("node", t.Node)
		}
		if t.Origin != "" && t.Origin != t.ID {
			tw.strArg("origin", t.Origin)
		}
		if t.Pipeline != "" {
			tw.strArg("pipeline", t.Pipeline)
		}
		if t.Stage != "" {
			tw.strArg("stage", t.Stage)
		}
		tw.strArg("state", t.State)
		tw.end()
		if t.Placed && t.SetupAt >= t.Submitted && t.EndedAt >= t.SetupAt {
			tw.span(pid, t.ID, "queued", t.Submitted, t.SetupAt)
			if t.RunAt >= t.SetupAt && t.EndedAt >= t.RunAt {
				tw.span(pid, t.ID, "setup", t.SetupAt, t.RunAt)
				tw.span(pid, t.ID, "run", t.RunAt, t.EndedAt)
				if t.Node >= 0 {
					tw.begin(event{name: t.Name, ph: "X", ts: usec(t.RunAt), dur: float64(t.EndedAt-t.RunAt) / 1e3,
						pid: pid, tid: t.Node + 1, cat: "run"})
					tw.intArg("attempt", t.Attempt)
					tw.strArg("id", t.ID)
					tw.end()
				}
			} else {
				tw.span(pid, t.ID, "setup", t.SetupAt, t.EndedAt)
			}
		} else {
			tw.span(pid, t.ID, "queued", t.Submitted, t.EndedAt)
		}
		tw.begin(event{name: t.Name, ph: "e", ts: usec(t.EndedAt), pid: pid, cat: "task", id: t.ID})
		tw.end()
	}

	// Queue-depth counters.
	for i, series := range c.QueueSeries {
		for _, p := range series {
			tw.begin(event{name: "queue depth", ph: "C", ts: usec(p.T), pid: pidOf(i)})
			tw.intArg("depth", p.Value)
			tw.end()
		}
	}

	if c.Data == nil {
		return nextPid
	}
	// Metric gauge series, routed to the owning pilot when the name
	// carries a "<pilotID>/" prefix.
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
			tw.begin(event{name: short, ph: "C", ts: usec(pt.T), pid: pid})
			tw.intArg("value", pt.Value)
			tw.end()
		}
	}
	// Instant events.
	for _, in := range c.Data.Instants {
		tid := 0
		if in.Node >= 0 {
			tid = in.Node + 1
		}
		tw.begin(event{name: in.Kind, ph: "i", ts: usec(in.T), pid: pidOf(in.Pilot), tid: tid, s: "p"})
		if in.Detail != "" {
			tw.strArg("detail", in.Detail)
		}
		tw.end()
	}
	// Steering ticks on the campaign track. The actions are escaped one
	// by one around their ASCII separator; the stats are ASCII.
	for _, tk := range c.Data.Ticks {
		tw.begin(event{name: "steer-tick", ph: "i", ts: usec(tk.T), pid: campaignPid, s: "p"})
		if len(tk.Actions) > 0 {
			tw.key("actions")
			tw.b = append(tw.b, '"')
			for i, a := range tk.Actions {
				if i > 0 {
					tw.b = append(tw.b, "; "...)
				}
				tw.b = appendEscaped(tw.b, a)
			}
			tw.b = append(tw.b, '"')
		}
		tw.key("stats")
		tw.b = appendStats(append(tw.b, '"'), tk.Pilots)
		tw.b = append(tw.b, '"')
		tw.end()
	}
	return nextPid
}

// appendStats writes a tick's pilot samples as
// "p%d q=%d(%+d) run=%d nodes=%d idle=%d util=%.2f[ frozen]", joined by
// " | ".
func appendStats(b []byte, pilots []trace.PilotSample) []byte {
	for i, p := range pilots {
		if i > 0 {
			b = append(b, " | "...)
		}
		b = strconv.AppendInt(append(b, 'p'), int64(i), 10)
		b = strconv.AppendInt(append(b, " q="...), int64(p.Queue), 10)
		b = append(b, '(')
		if p.QueueDelta >= 0 {
			b = append(b, '+')
		}
		b = strconv.AppendInt(b, int64(p.QueueDelta), 10)
		b = strconv.AppendInt(append(b, ") run="...), int64(p.Running), 10)
		b = strconv.AppendInt(append(b, " nodes="...), int64(p.Nodes), 10)
		b = strconv.AppendInt(append(b, " idle="...), int64(p.Idle), 10)
		b = strconv.AppendFloat(append(b, " util="...), p.UtilWindow, 'f', 2, 64)
		if p.Frozen {
			b = append(b, " frozen"...)
		}
	}
	return b
}

// appendString appends s as a JSON string, quoted and escaped as
// encoding/json does with SetEscapeHTML(false).
func appendString(b []byte, s string) []byte {
	return append(appendEscaped(append(b, '"'), s), '"')
}

// appendEscaped appends the body of a JSON string: '"' and '\\'
// backslashed, \b \f \n \r \t by name and other control bytes as
// \u00XX, U+2028 and U+2029 as \u2028 and \u2029, and each byte of
// invalid UTF-8 as \ufffd. Everything else is copied as it is.
func appendEscaped(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(append(b, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(b, s[start:]...)
}

// appendFloat appends f as encoding/json writes a float64: the shortest
// decimal that reads back as f, in exponent form below 1e-6 and from
// 1e21 on, with a one-digit negative exponent unpadded (1e-7, not
// 1e-07). JSON has no NaN or infinity, so those are an error.
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, fmt.Errorf("chrome trace: unsupported value %v", f)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b, nil
}

// ValidateChromeTrace parses Trace Event JSON and checks structural
// invariants: required fields on every event, non-negative "X"
// durations, and — for every nestable async (pid, cat, id) track —
// strictly balanced, properly nested "b"/"e" pairs in file order. The
// CI smoke and the regression tests share this check.
//
// The document is read as one json.Unmarshal into a []event would read
// it (field matching, duplicate keys, null), but traceEvents is decoded
// one element at a time into a reused event, so memory grows with the
// number of async tracks, not with the number of events.
func ValidateChromeTrace(data []byte) error {
	var doc struct {
		TraceEvents eventStream `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("chrome trace: %w", err)
	}
	s := &doc.TraceEvents
	if s.arrays > 1 {
		// encoding/json decodes a repeated traceEvents array field by
		// field over the elements already in the slice, and in its spare
		// capacity, which depends on the element size. Only a whole
		// decode into a slice of this element type knows the events.
		var whole struct {
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
		if err := json.Unmarshal(data, &whole); err != nil {
			return fmt.Errorf("chrome trace: %w", err)
		}
		s.v = validator{}
		for _, e := range whole.TraceEvents {
			ev := traceEvent{Name: jsonText(e.Name), Ph: jsonText(e.Ph), Cat: jsonText(e.Cat), ID: jsonText(e.ID)}
			if e.Ts != nil {
				ev.Ts = jsonFloat{*e.Ts, true}
			}
			if e.Dur != nil {
				ev.Dur = jsonFloat{*e.Dur, true}
			}
			if e.Pid != nil {
				ev.Pid = jsonInt{*e.Pid, true}
			}
			s.v.check(&ev)
		}
	}
	return s.v.result()
}

// eventStream is the traceEvents value. encoding/json hands it the raw
// array (and again for each repeat of the key), and it decodes and
// checks the elements one at a time.
type eventStream struct {
	arrays int // traceEvents values seen
	v      validator
}

func (s *eventStream) UnmarshalJSON(raw []byte) error {
	s.arrays++
	if s.arrays > 1 || raw[0] == 'n' {
		return nil // a repeat is replayed whole; null holds no events
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('[') {
		return fmt.Errorf("traceEvents is %.20s, not an array", raw)
	}
	var ev traceEvent
	for dec.More() {
		ev = traceEvent{Name: ev.Name[:0], Ph: ev.Ph[:0], Cat: ev.Cat[:0], ID: ev.ID[:0]}
		if err := dec.Decode(&ev); err != nil {
			return err
		}
		s.v.check(&ev)
	}
	return nil
}

// traceEvent holds the fields the validator reads from one element. Its
// field types decode as string, *float64 and *int fields do — a null
// string leaves the value as it was, a null number clears it, and a
// value of another JSON type is an error — but into reused storage.
type traceEvent struct {
	Name jsonText  `json:"name"`
	Ph   jsonText  `json:"ph"`
	Ts   jsonFloat `json:"ts"`
	Dur  jsonFloat `json:"dur"`
	Pid  jsonInt   `json:"pid"`
	Cat  jsonText  `json:"cat"`
	ID   jsonText  `json:"id"`
}

type jsonText []byte

func (t *jsonText) UnmarshalJSON(b []byte) error {
	if b[0] == '"' {
		// Without escapes or invalid UTF-8 the body is the value.
		if s := b[1 : len(b)-1]; bytes.IndexByte(s, '\\') < 0 && utf8.Valid(s) {
			*t = append((*t)[:0], s...)
			return nil
		}
	}
	var s *string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	if s != nil {
		*t = append((*t)[:0], *s...)
	}
	return nil
}

type jsonFloat struct {
	v  float64
	ok bool
}

func (f *jsonFloat) UnmarshalJSON(b []byte) error {
	if b[0] == '-' || b[0] >= '0' && b[0] <= '9' {
		v, err := strconv.ParseFloat(string(b), 64)
		if err != nil {
			return fmt.Errorf("number %s does not fit a float64", b)
		}
		*f = jsonFloat{v, true}
		return nil
	}
	var p *float64
	if err := json.Unmarshal(b, &p); err != nil {
		return err
	}
	*f = jsonFloat{} // null
	return nil
}

type jsonInt struct {
	v  int
	ok bool
}

func (n *jsonInt) UnmarshalJSON(b []byte) error {
	if b[0] == '-' || b[0] >= '0' && b[0] <= '9' {
		v, err := strconv.ParseInt(string(b), 10, 64)
		if err != nil {
			return fmt.Errorf("number %s is not an int", b)
		}
		*n = jsonInt{int(v), true}
		return nil
	}
	var p *int
	if err := json.Unmarshal(b, &p); err != nil {
		return err
	}
	*n = jsonInt{} // null
	return nil
}

// validator checks events in file order and keeps the first structural
// error. An async track is identified by (pid, cat, id), kept apart: a
// joined string would merge cat "a/b" + id "c" with cat "a" + id "b/c".
type validator struct {
	events int
	err    error
	index  map[string]int    // track key → position in tracks
	tracks []asyncTrack      // in the order their first span opened
	key    []byte            // scratch for track keys
	names  map[string]string // span names, stored once each
}

type asyncTrack struct {
	pid     int
	cat, id string
	stack   []frame
}

type frame struct {
	name string
	ts   float64
}

// trackKey encodes (pid, cat, id) without ambiguity: pid, the length of
// cat, then cat and id.
func (v *validator) trackKey(pid int, cat, id []byte) []byte {
	k := strconv.AppendInt(v.key[:0], int64(pid), 10)
	k = strconv.AppendInt(append(k, ' '), int64(len(cat)), 10)
	k = append(append(append(k, ' '), cat...), id...)
	v.key = k
	return k
}

func (v *validator) check(ev *traceEvent) {
	i := v.events
	v.events++
	if v.err != nil {
		return
	}
	ph := string(ev.Ph)
	if ph == "" || !ev.Pid.ok {
		v.err = fmt.Errorf("chrome trace: event %d missing ph/pid", i)
		return
	}
	if ph != "M" && !ev.Ts.ok {
		v.err = fmt.Errorf("chrome trace: event %d missing ts", i)
		return
	}
	switch ph {
	case "X":
		if !ev.Dur.ok || ev.Dur.v < 0 {
			v.err = fmt.Errorf("chrome trace: event %d (%s) bad dur", i, ev.Name)
		}
	case "b", "e":
		k := v.trackKey(ev.Pid.v, ev.Cat, ev.ID)
		var tr *asyncTrack
		if at, seen := v.index[string(k)]; seen {
			tr = &v.tracks[at]
		}
		if ph == "b" {
			if tr != nil && len(tr.stack) > 0 && ev.Ts.v < tr.stack[len(tr.stack)-1].ts {
				v.err = fmt.Errorf("chrome trace: event %d (%s) opens before parent", i, ev.Name)
				return
			}
			if tr == nil {
				if v.index == nil {
					v.index, v.names = make(map[string]int), make(map[string]string)
				}
				key := string(k)
				v.index[key] = len(v.tracks)
				idAt := len(key) - len(ev.ID)
				// A task's span tree is two deep: the attempt and one phase.
				v.tracks = append(v.tracks, asyncTrack{pid: ev.Pid.v, cat: key[idAt-len(ev.Cat) : idAt], id: key[idAt:],
					stack: make([]frame, 0, 2)})
				tr = &v.tracks[len(v.tracks)-1]
			}
			name, ok := v.names[string(ev.Name)]
			if !ok {
				name = string(ev.Name)
				v.names[name] = name
			}
			tr.stack = append(tr.stack, frame{name, ev.Ts.v})
			return
		}
		if tr == nil || len(tr.stack) == 0 {
			v.err = fmt.Errorf("chrome trace: event %d closes %q with empty stack", i, ev.Name)
			return
		}
		top := tr.stack[len(tr.stack)-1]
		if top.name != string(ev.Name) {
			v.err = fmt.Errorf("chrome trace: event %d closes %q but %q is open", i, ev.Name, top.name)
			return
		}
		if ev.Ts.v < top.ts {
			v.err = fmt.Errorf("chrome trace: event %d closes %q before it opened", i, ev.Name)
			return
		}
		tr.stack = tr.stack[:len(tr.stack)-1]
	}
}

// result is the verdict once every event has been checked.
func (v *validator) result() error {
	if v.events == 0 {
		return fmt.Errorf("chrome trace: no events")
	}
	if v.err != nil {
		return v.err
	}
	for _, tr := range v.tracks {
		if len(tr.stack) > 0 {
			return fmt.Errorf("chrome trace: span %q on pid %d cat %q id %q never closed",
				tr.stack[len(tr.stack)-1].name, tr.pid, tr.cat, tr.id)
		}
	}
	return nil
}
