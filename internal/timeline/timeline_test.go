package timeline

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestBreakdown(t *testing.T) {
	r := New()
	r.Add("rank0", PhaseForward, "step0", 0, 1)
	r.Add("rank0", PhaseBackward, "step0", 1, 3)
	r.Add("coordinator", PhaseAllreduce, "buf0", 2, 2.5)
	b := r.Breakdown()
	if math.Abs(b[PhaseForward]-1) > 1e-12 || math.Abs(b[PhaseBackward]-2) > 1e-12 || math.Abs(b[PhaseAllreduce]-0.5) > 1e-12 {
		t.Fatalf("breakdown %v", b)
	}
}

func TestSpan(t *testing.T) {
	r := New()
	if lo, hi := r.Span(); lo != 0 || hi != 0 {
		t.Fatal("empty span not zero")
	}
	r.Add("a", PhaseForward, "x", 0.5, 1.5)
	r.Add("b", PhaseBackward, "y", 0.2, 0.9)
	lo, hi := r.Span()
	if lo != 0.2 || hi != 1.5 {
		t.Fatalf("span [%g,%g]", lo, hi)
	}
}

// TestNilRecorderIsOff checks the off switch is the nil recorder, and
// that a zero Recorder records like New's.
func TestNilRecorderIsOff(t *testing.T) {
	var nilRec *Recorder
	nilRec.Add("a", PhaseForward, "x", 0, 1) // must not panic
	r := &Recorder{}
	r.Add("a", PhaseForward, "x", 0, 1)
	if len(r.Events) != 1 {
		t.Fatalf("zero recorder stored %d events, want 1", len(r.Events))
	}
}

func TestNegativeDurationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("inverted interval accepted")
		}
	}()
	New().Add("a", PhaseForward, "x", 2, 1)
}

func TestChromeTraceRoundTrip(t *testing.T) {
	r := New()
	r.Add("rank0", PhaseForward, "s0", 0, 0.2)
	r.Add("rank0", PhaseBackward, "s0", 0.2, 0.6)
	r.Add("coordinator", PhaseAllreduce, "b0", 0.3, 0.5)
	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadChromeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	orig, got := r.Breakdown(), back.Breakdown()
	for phase, d := range orig {
		if math.Abs(got[phase]-d) > 1e-9 {
			t.Fatalf("phase %s: %g vs %g", phase, got[phase], d)
		}
	}
	if _, err := ReadChromeTrace(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage trace accepted")
	}
}

func TestChromeTraceFormat(t *testing.T) {
	r := New()
	r.Add("rank0", PhaseForward, "s0", 0, 0.001)
	r.Add("coordinator", PhaseNegotiate, "c0", 0.001, 0.002)
	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	// One thread_name metadata event per lane, in tid order, then the
	// spans.
	if len(events) != 4 {
		t.Fatalf("%d events, want 2 metadata + 2 spans", len(events))
	}
	for i, lane := range []string{"coordinator", "rank0"} {
		m := events[i]
		if m["ph"] != "M" || m["name"] != "thread_name" || m["tid"] != float64(i) ||
			m["args"].(map[string]any)["name"] != lane {
			t.Fatalf("metadata event %d = %v, want thread_name %q on tid %d", i, m, lane, i)
		}
	}
	events = events[2:]
	e := events[0]
	if e["ph"] != "X" {
		t.Fatalf("phase type %v", e["ph"])
	}
	if e["dur"].(float64) != 1000 { // 1 ms → 1000 µs
		t.Fatalf("dur %v", e["dur"])
	}
	if !strings.Contains(e["name"].(string), PhaseForward) {
		t.Fatalf("name %v", e["name"])
	}
	// Distinct lanes get distinct tids.
	if events[0]["tid"] == events[1]["tid"] {
		t.Fatal("lanes share a tid")
	}
}

func TestEdgeStringParseRoundTrip(t *testing.T) {
	e := Edge{Src: 4, Dst: 0, Seq: 129, Inc: 2}
	s := e.String()
	if s != "4>0#129.2" {
		t.Fatalf("Edge.String() = %q", s)
	}
	got, err := ParseEdge(s)
	if err != nil {
		t.Fatalf("ParseEdge(%q): %v", s, err)
	}
	if got != e {
		t.Fatalf("round trip %+v != %+v", got, e)
	}
}

func TestParseEdgeMalformed(t *testing.T) {
	for _, s := range []string{
		"", ">", "1>2", "1>2#3", "1>2#3.", "a>2#3.0", "1>b#3.0",
		"1>2#c.0", "1>2#3.d", "-1>2#3.0", "1>-2#3.0", "1>2#3.-1",
		"#3.0", "1>#3.0", "1>2#.0",
	} {
		if _, err := ParseEdge(s); err == nil {
			t.Errorf("ParseEdge(%q): want error, got nil", s)
		}
	}
}

func TestChromeTraceEdgeRoundTrip(t *testing.T) {
	rec := New()
	rec.AddEdge("rank0", PhaseSend, "send", "0>1#5.0", 1, 2)
	rec.Add("rank0", PhaseForward, "fwd", 0, 1)
	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("write: %v", err)
	}
	back, err := ReadChromeTrace(&buf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	var edges []string
	for _, e := range back.Events {
		if e.Edge != "" {
			edges = append(edges, e.Edge)
		}
	}
	if len(edges) != 1 || edges[0] != "0>1#5.0" {
		t.Fatalf("edges after round trip = %v, want [0>1#5.0]", edges)
	}
}

// TestChromeTraceLaneRoundTrip writes lanes whose sorted order is not
// their rank order — a restart's "rank0.r1", a two-digit rank — and
// requires every record to read back whole, lane name included.
func TestChromeTraceLaneRoundTrip(t *testing.T) {
	r := New()
	r.Add("rank10", PhaseForward, "f", 0, 0.25)
	r.Add("rank0.r1", PhaseStep, "step", 0, 0.5)
	r.AddEdge("rank2", PhaseSend, "send", "2>0#1.1", 0.25, 0.5)
	r.Add("rank0", PhaseRecovery, "restart", 0.5, 0.5)
	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadChromeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Events, r.Events) {
		t.Fatalf("round trip:\n got  %+v\n want %+v", back.Events, r.Events)
	}
}
