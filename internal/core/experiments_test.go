package core

import (
	"sort"
	"strings"
	"testing"
)

// TestPaperBands grades every simulator band of the registry — the
// rows repro-check prints — at the two seeds the reproduction is
// checked at. A failure names the paper claim.
func TestPaperBands(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		for _, e := range Experiments() {
			if e.Trains || len(e.Bands) == 0 {
				continue
			}
			res, err := e.Run(seed, false)
			if err != nil {
				t.Fatalf("%s seed %d: %v", e.ID, seed, err)
			}
			for _, b := range e.Bands {
				if pass, detail := b.Grade(res.Values); !pass {
					t.Errorf("seed %d: band %q fails: measured %s (band %g–%g)", seed, b.Claim, detail, b.Lo, b.Hi)
				}
			}
		}
	}
}

// TestSimulatorExperimentsRun runs every simulator entry once and
// checks what cmd/figures renders: one named CSV per entry whose rows
// match its header, at least one summary line, and a value for every
// band.
func TestSimulatorExperimentsRun(t *testing.T) {
	ids, files := map[string]bool{}, map[string]bool{}
	for _, e := range Experiments() {
		if ids[e.ID] {
			t.Fatalf("duplicate experiment id %q", e.ID)
		}
		ids[e.ID] = true
		if e.Trains {
			continue
		}
		res, err := e.Run(1, true)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		csv := res.CSV
		if !strings.HasPrefix(csv.Name, e.ID+"_") || !strings.HasSuffix(csv.Name, ".csv") || files[csv.Name] {
			t.Errorf("%s: CSV name %q is not a unique %s_*.csv", e.ID, csv.Name, e.ID)
		}
		files[csv.Name] = true
		for _, r := range csv.Rows {
			if strings.Count(r, ",") != strings.Count(csv.Header, ",") {
				t.Errorf("%s: row %q does not match header %q", e.ID, r, csv.Header)
			}
		}
		if len(csv.Rows) == 0 || len(res.Notes) == 0 {
			t.Errorf("%s: %d rows, %d summary lines", e.ID, len(csv.Rows), len(res.Notes))
		}
		for _, b := range e.Bands {
			if _, ok := res.Values[b.Value]; !ok {
				t.Errorf("%s: band %q reads missing value %q", e.ID, b.Claim, b.Value)
			}
		}
	}
}

// TestBandOverNoRowsFails pins the grading helper: a band whose value
// was computed over zero compared rows, or never computed, fails.
func TestBandOverNoRowsFails(t *testing.T) {
	f2, err := Lookup("f2")
	if err != nil {
		t.Fatal(err)
	}
	b := f2.Bands[0]
	for name, v := range map[string]Values{
		"zero compared": {b.Value: winShare(0, 0)},
		"missing":       {},
		"one loss":      {b.Value: winShare(2, 3)},
	} {
		if pass, _ := b.Grade(v); pass {
			t.Errorf("%s: band %q passed", name, b.Claim)
		}
	}
	if pass, detail := b.Grade(Values{b.Value: winShare(3, 3), "mv2gdr_wins": 3, "sizes_compared": 3}); !pass || detail != "3/3 sizes" {
		t.Errorf("all sizes won: pass %v, detail %q", pass, detail)
	}
}

// BenchmarkExperiments times every registry entry (training entries
// at their -fast size) and reports its named values as metrics.
func BenchmarkExperiments(b *testing.B) {
	for _, e := range Experiments() {
		b.Run(e.ID, func(b *testing.B) {
			var res *Outcome
			for i := 0; i < b.N; i++ {
				var err error
				if res, err = e.Run(1, true); err != nil {
					b.Fatal(err)
				}
			}
			keys := make([]string, 0, len(res.Values))
			for k := range res.Values {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				b.ReportMetric(res.Values[k], k)
			}
		})
	}
}
