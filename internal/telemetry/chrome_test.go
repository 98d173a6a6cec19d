package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestValidateChromeTraceKeepsTracksApart: async tracks are (pid, cat,
// id) triples. Joined into one "pid/cat/id" string, cat "a/b" + id "c"
// and cat "a" + id "b/c" became the same track, so a span closed on the
// wrong track passed and two independent tracks were judged as one stack.
func TestValidateChromeTraceKeepsTracksApart(t *testing.T) {
	crossClose := `{"traceEvents":[` +
		`{"name":"x","ph":"b","pid":1,"ts":0,"cat":"a/b","id":"c"},` +
		`{"name":"x","ph":"e","pid":1,"ts":1,"cat":"a","id":"b/c"}]}`
	if err := ValidateChromeTrace([]byte(crossClose)); err == nil {
		t.Fatal("span closed on a different track passed validation")
	}
	independent := `{"traceEvents":[` +
		`{"name":"x","ph":"b","pid":1,"ts":1,"cat":"a/b","id":"c"},` +
		`{"name":"y","ph":"b","pid":1,"ts":0,"cat":"a","id":"b/c"},` +
		`{"name":"x","ph":"e","pid":1,"ts":2,"cat":"a/b","id":"c"},` +
		`{"name":"y","ph":"e","pid":1,"ts":3,"cat":"a","id":"b/c"}]}`
	if err := ValidateChromeTrace([]byte(independent)); err != nil {
		t.Fatalf("two independent tracks rejected: %v", err)
	}
}

// TestValidateChromeTraceReportsFirstUnclosedSpan: with several tracks
// left open, the error names the span on the track opened first, the
// same on every call.
func TestValidateChromeTraceReportsFirstUnclosedSpan(t *testing.T) {
	var sb strings.Builder
	sb.WriteString(`{"traceEvents":[`)
	// Track ids open in the order 9, 8, ..., 0; "closed" is balanced.
	sb.WriteString(`{"name":"closed","ph":"b","pid":1,"ts":0,"cat":"t","id":"c"},`)
	sb.WriteString(`{"name":"closed","ph":"e","pid":1,"ts":1,"cat":"t","id":"c"}`)
	for i := 9; i >= 0; i-- {
		id := string(rune('0' + i))
		sb.WriteString(`,{"name":"span` + id + `","ph":"b","pid":1,"ts":2,"cat":"t","id":"` + id + `"}`)
	}
	sb.WriteString(`]}`)
	data := []byte(sb.String())
	const want = `chrome trace: span "span9" on pid 1 cat "t" id "9" never closed`
	for i := 0; i < 50; i++ {
		err := ValidateChromeTrace(data)
		if err == nil || err.Error() != want {
			t.Fatalf("call %d: got %v, want %s", i, err, want)
		}
	}
}

// FuzzValidateChromeTrace: the validator never panics, its verdict is
// the same on a second call, and a trace it accepts has as many span
// closes as span opens.
func FuzzValidateChromeTrace(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, []CampaignTrace{campaignTrace()}); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		err := ValidateChromeTrace(data)
		if again := ValidateChromeTrace(data); (err == nil) != (again == nil) || (err != nil && err.Error() != again.Error()) {
			t.Fatalf("verdict changed between calls: %v, then %v", err, again)
		}
		if err != nil {
			return
		}
		var doc struct {
			TraceEvents []struct {
				Ph string `json:"ph"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatalf("accepted trace does not parse: %v", err)
		}
		open := 0
		for _, ev := range doc.TraceEvents {
			switch ev.Ph {
			case "b":
				open++
			case "e":
				open--
			}
		}
		if open != 0 {
			t.Fatalf("accepted trace has %d more span opens than closes", open)
		}
	})
}
