package timeline

import (
	"strings"
	"testing"
)

// TestReadChromeTraceMalformed drives the parser over the inputs a
// real trace directory accumulates: truncated writes, wrong JSON
// shapes, hostile values. Every case must return a clean error or a
// well-formed recorder — never panic.
func TestReadChromeTraceMalformed(t *testing.T) {
	cases := []struct {
		name    string
		input   string
		wantErr bool
		events  int // checked only when wantErr is false
	}{
		{name: "empty input", input: "", wantErr: true},
		{name: "empty array", input: "[]", wantErr: false, events: 0},
		{name: "truncated array", input: `[{"name":"a","cat":"FORWARD","ph":"X","ts":0,`, wantErr: true},
		{name: "not json", input: "HOROVOD_TIMELINE=/tmp/t.json", wantErr: true},
		{name: "object not array", input: `{"traceEvents":[]}`, wantErr: true},
		{name: "number array", input: "[1,2,3]", wantErr: true},
		{name: "null", input: "null", wantErr: false, events: 0},
		{
			name:    "negative duration",
			input:   `[{"name":"a","cat":"FORWARD","ph":"X","ts":5,"dur":-3,"pid":0,"tid":0}]`,
			wantErr: true,
		},
		{
			name:    "non-complete events skipped",
			input:   `[{"name":"m","cat":"c","ph":"M","ts":0,"dur":0},{"name":"a","cat":"FORWARD","ph":"X","ts":0,"dur":1}]`,
			wantErr: false, events: 1,
		},
		{
			name:    "missing fields default",
			input:   `[{"ph":"X"}]`,
			wantErr: false, events: 1,
		},
		{
			name:    "string ts",
			input:   `[{"name":"a","cat":"FORWARD","ph":"X","ts":"0","dur":1}]`,
			wantErr: true,
		},
		{
			name:    "lane metadata without args",
			input:   `[{"name":"thread_name","ph":"M","tid":1},{"ph":"X","tid":1}]`,
			wantErr: false, events: 1,
		},
		{
			name:    "lane metadata with a numeric name",
			input:   `[{"name":"thread_name","ph":"M","tid":1,"args":{"name":7}},{"ph":"X","tid":1}]`,
			wantErr: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec, err := ReadChromeTrace(strings.NewReader(tc.input))
			if tc.wantErr {
				if err == nil {
					t.Fatalf("ReadChromeTrace(%q) = nil error, want error", tc.input)
				}
				return
			}
			if err != nil {
				t.Fatalf("ReadChromeTrace(%q) = %v, want nil", tc.input, err)
			}
			if len(rec.Events) != tc.events {
				t.Errorf("events = %d, want %d", len(rec.Events), tc.events)
			}
		})
	}
}

// FuzzReadChromeTrace asserts the parser's contract under arbitrary
// bytes: no panic, and on success every event is well-formed
// (End >= Start) so downstream analysis never sees negative
// durations.
func FuzzReadChromeTrace(f *testing.F) {
	f.Add("")
	f.Add("[]")
	f.Add("null")
	f.Add(`[{"name":"a","cat":"FORWARD","ph":"X","ts":0,"dur":1,"pid":0,"tid":0}]`)
	f.Add(`[{"name":"a","cat":"c","ph":"M"}]`)
	f.Add(`[{"ph":"X","ts":1e308,"dur":1e308}]`)
	f.Add(`[{"ph":"X","ts":-5,"dur":2}]`)
	f.Add(`[{"name":"thread_name","ph":"M","tid":0,"args":{"name":"rank0"}},{"ph":"X","tid":0,"dur":1}]`)
	f.Add(`[{"name":"thread_name","ph":"M","tid":3,"args":{}},{"ph":"X","tid":3}]`)
	f.Fuzz(func(t *testing.T, input string) {
		rec, err := ReadChromeTrace(strings.NewReader(input))
		if err != nil {
			return
		}
		for i, e := range rec.Events {
			if e.End < e.Start {
				t.Errorf("event %d: End %g < Start %g from input %q", i, e.End, e.Start, input)
			}
		}
	})
}

// TestReadChromeTraceLaneNames checks where lane names come from:
// a tid's thread_name metadata when the trace carries one, "tid<N>"
// otherwise (a foreign Horovod timeline, or metadata with no name).
func TestReadChromeTraceLaneNames(t *testing.T) {
	input := `[{"name":"thread_name","ph":"M","pid":0,"tid":0,"args":{"name":"rank1.r1"}},
		{"name":"thread_name","ph":"M","pid":0,"tid":1,"args":{}},
		{"name":"a","cat":"FORWARD","ph":"X","ts":0,"dur":1,"tid":0},
		{"name":"b","cat":"FORWARD","ph":"X","ts":0,"dur":1,"tid":1},
		{"name":"c","cat":"FORWARD","ph":"X","ts":0,"dur":1,"tid":2}]`
	rec, err := ReadChromeTrace(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	var lanes []string
	for _, e := range rec.Events {
		lanes = append(lanes, e.Lane)
	}
	if want := "rank1.r1 tid1 tid2"; strings.Join(lanes, " ") != want {
		t.Fatalf("lanes = %v, want %s", lanes, want)
	}
}
