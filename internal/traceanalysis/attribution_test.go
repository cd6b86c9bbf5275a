package traceanalysis

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"segscale/internal/timeline"
)

// stepTrace builds one rank1 step window [0,10] whose interior is
// fully described: forward, backward, a pack memcpy, an allreduce, and
// an idle recv wait on rank0, plus 1s nothing covers (overhead).
func stepTrace() *timeline.Recorder {
	rec := timeline.New()
	rec.AddEdge("rank0", timeline.PhaseSend, "send", "0>1#0.0", 0, 6)
	rec.Add("rank1", timeline.PhaseStep, "step", 0, 10)
	rec.Add("rank1", timeline.PhaseForward, "fwd", 0, 3)
	rec.Add("rank1", timeline.PhaseBackward, "bwd", 3, 5)
	rec.Add("rank1", timeline.PhaseMemcpy, "pack", 5, 5.5)
	rec.AddEdge("rank1", timeline.PhaseRecv, "recv", "0>1#0.0", 5.5, 7.5)
	rec.Add("rank1", timeline.PhaseAllreduce, "ring", 7.5, 9)
	return rec
}

func TestAttributeTraceBuckets(t *testing.T) {
	l, err := AttributeTrace(stepTrace(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Validate(SumEpsilon); err != nil {
		t.Fatal(err)
	}
	var row *StepAttribution
	for i := range l.Steps {
		if l.Steps[i].Rank == 1 {
			row = &l.Steps[i]
		}
	}
	if row == nil {
		t.Fatal("no rank1 row")
	}
	want := BucketSet{}
	want[BucketForward] = 3
	want[BucketBackward] = 2
	want[BucketPack] = 0.5
	want[BucketIdleWait] = 2
	want[BucketWire] = 1.5
	want[BucketOverhead] = 1
	for i, v := range want {
		if math.Abs(row.Buckets[i]-v) > 1e-12 {
			t.Errorf("bucket %s = %g, want %g", BucketNames[i], row.Buckets[i], v)
		}
	}
	if math.Abs(row.StepSec-10) > 1e-12 {
		t.Errorf("StepSec = %g, want 10", row.StepSec)
	}
	if row.BlameRank != 0 || row.BlameEdge != "0>1#0.0" {
		t.Errorf("blame = rank %d edge %q, want rank 0 edge 0>1#0.0", row.BlameRank, row.BlameEdge)
	}
}

// TestAttributeTraceOverlapCountedOnce: an allreduce span overlapping
// the backward span must not double-count the overlap — the higher-
// priority bucket keeps it and the sum still equals the wall time.
func TestAttributeTraceOverlapCountedOnce(t *testing.T) {
	rec := timeline.New()
	rec.Add("rank0", timeline.PhaseStep, "step", 0, 4)
	rec.Add("rank0", timeline.PhaseBackward, "bwd", 0, 3)
	rec.Add("rank0", timeline.PhaseAllreduce, "overlapped", 2, 4)
	l, err := AttributeTrace(rec, nil)
	if err != nil {
		t.Fatal(err)
	}
	row := l.Steps[0]
	if math.Abs(row.Buckets[BucketBackward]-3) > 1e-12 {
		t.Errorf("backward = %g, want 3", row.Buckets[BucketBackward])
	}
	if math.Abs(row.Buckets[BucketWire]-1) > 1e-12 {
		t.Errorf("allreduce_wire = %g, want 1 (overlap with backward claimed once)", row.Buckets[BucketWire])
	}
	if math.Abs(row.StepSec-4) > 1e-12 {
		t.Errorf("StepSec = %g, want 4", row.StepSec)
	}
	if err := l.Validate(SumEpsilon); err != nil {
		t.Fatal(err)
	}
}

func TestLedgerJSONRoundTripAndDeterminism(t *testing.T) {
	l, err := AttributeTrace(stepTrace(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := l.WriteLedger(&a); err != nil {
		t.Fatal(err)
	}
	if err := l.WriteLedger(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("ledger serialisation is not byte-deterministic")
	}
	back, err := ReadLedger(&a)
	if err != nil {
		t.Fatal(err)
	}
	var c bytes.Buffer
	if err := back.WriteLedger(&c); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b.Bytes(), c.Bytes()) {
		t.Fatal("ledger JSON does not round-trip byte-identically")
	}
}

func TestLedgerValidateCatchesBadSums(t *testing.T) {
	l := &Ledger{Schema: LedgerSchema, Source: "test", Ranks: 1}
	var b BucketSet
	b[BucketForward] = 1
	l.Steps = append(l.Steps, StepAttribution{Step: 0, Rank: 0, StepSec: 2, Buckets: b, BlameRank: -1})
	if err := l.Validate(1e-9); err == nil {
		t.Fatal("Validate accepted buckets that do not sum to the step wall")
	}
	l.Steps[0].StepSec = 1
	if err := l.Validate(1e-9); err != nil {
		t.Fatalf("Validate rejected an exact ledger: %v", err)
	}
	l.Schema = 99
	if err := l.Validate(1e-9); err == nil {
		t.Fatal("Validate accepted an unknown schema")
	}
}

func TestLedgerRecorder(t *testing.T) {
	r := NewLedgerRecorder("perfsim", 2)
	var b0, b1 BucketSet
	b0[BucketForward] = 2
	b1[BucketForward] = 1
	b1[BucketIdleWait] = 1
	r.Record(StepAttribution{Step: 1, Rank: 1, StepSec: 2, Buckets: b1, BlameRank: 0})
	r.Record(StepAttribution{Step: 0, Rank: 0, StepSec: 2, Buckets: b0, BlameRank: -1})
	l := r.Ledger()
	if l.Steps[0].Step != 0 || l.Steps[1].Step != 1 {
		t.Fatal("Ledger() must sort rows by (step, rank)")
	}
	if got := l.BlameCounts(); got[0] != 1 || got[1] != 0 {
		t.Fatalf("BlameCounts = %v, want [1 0]", got)
	}
	means := l.BucketMeans()
	if math.Abs(means[BucketForward]-1.5) > 1e-12 {
		t.Fatalf("mean forward = %g, want 1.5", means[BucketForward])
	}

	var nilRec *LedgerRecorder
	nilRec.Record(StepAttribution{}) // nil recorder must be a no-op
	if nilRec.Len() != 0 {
		t.Fatal("nil recorder reports rows")
	}
}

func TestLaneRank(t *testing.T) {
	cases := map[string]int{
		"rank0": 0, "rank12": 12, "rank3.r1": 3, "tid7": 7,
		"coordinator": -1, "gpus6": -1, "rank": -1, "rankx": -1,
	}
	for lane, want := range cases {
		if got := LaneRank(lane); got != want {
			t.Errorf("LaneRank(%q) = %d, want %d", lane, got, want)
		}
	}
}

func TestLedgerValidateRejectsMalformedRows(t *testing.T) {
	row := func(rank, blame int, sec float64, b BucketSet) *Ledger {
		return &Ledger{Schema: LedgerSchema, Source: "test", Ranks: 2,
			Steps: []StepAttribution{{Rank: rank, StepSec: sec, Buckets: b, BlameRank: blame}}}
	}
	var ok BucketSet
	ok[BucketForward] = 1
	if err := (&Ledger{Schema: LedgerSchema, Source: "test", Ranks: 0}).Validate(0); err == nil {
		t.Error("Validate accepted a zero-rank ledger")
	}
	if err := row(5, -1, 1, ok).Validate(0); err == nil {
		t.Error("Validate accepted a row outside the rank range")
	}
	if err := row(0, 7, 1, ok).Validate(0); err == nil {
		t.Error("Validate accepted a blame rank outside the rank range")
	}
	var neg BucketSet
	neg[BucketForward] = -1
	if err := row(0, -1, -1, neg).Validate(0); err == nil {
		t.Error("Validate accepted a negative bucket")
	}
	var nan BucketSet
	nan[BucketForward] = math.NaN()
	if err := row(0, -1, 1, nan).Validate(0); err == nil {
		t.Error("Validate accepted a NaN bucket")
	}
}

func TestBucketSamplesAndRecorderLen(t *testing.T) {
	r := NewLedgerRecorder("test", 1)
	var b BucketSet
	b[BucketIdleWait] = 3
	r.Record(StepAttribution{Step: 0, Rank: 0, StepSec: 3, Buckets: b, BlameRank: -1})
	b[BucketIdleWait] = 5
	r.Record(StepAttribution{Step: 1, Rank: 0, StepSec: 5, Buckets: b, BlameRank: -1})
	if got := r.Len(); got != 2 {
		t.Fatalf("Len = %d, want 2", got)
	}
	samples := r.Ledger().BucketSamples(BucketIdleWait)
	if len(samples) != 2 || samples[0] != 3 || samples[1] != 5 {
		t.Fatalf("BucketSamples = %v, want [3 5]", samples)
	}
	if got := r.Ledger().BucketSamples(BucketForward); got[0] != 0 || got[1] != 0 {
		t.Fatalf("untouched bucket samples = %v, want zeros", got)
	}
}

func TestReadLedgerRejectsGarbage(t *testing.T) {
	if _, err := ReadLedger(bytes.NewReader([]byte("{not json"))); err == nil {
		t.Error("ReadLedger accepted malformed JSON")
	}
	bad := &Ledger{Schema: LedgerSchema, Source: "test", Ranks: 1}
	var b BucketSet
	b[BucketForward] = 1
	bad.Steps = append(bad.Steps, StepAttribution{StepSec: 99, Buckets: b, BlameRank: -1})
	var buf bytes.Buffer
	out, err := json.Marshal(bad)
	if err != nil {
		t.Fatal(err)
	}
	buf.Write(out)
	if _, err := ReadLedger(&buf); err == nil {
		t.Error("ReadLedger accepted a ledger violating the sum invariant")
	}
}

func TestBucketSetUnmarshalJSON(t *testing.T) {
	cases := []struct {
		name, in, wantErr string
		want              BucketSet
	}{
		{name: "known keys", in: `{"forward_sec":1.5,"overhead_sec":2}`,
			want: BucketSet{BucketForward: 1.5, BucketOverhead: 2}},
		{name: "one unknown key", in: `{"forward_sec":1,"warp_sec":2}`,
			wantErr: `traceanalysis: unknown ledger bucket "warp_sec"`},
		// The error names the lexically first unknown key, whatever
		// order the decoded map iterates in.
		{name: "two unknown keys", in: `{"zeta_sec":1,"forward_sec":1,"alpha_sec":2}`,
			wantErr: `traceanalysis: unknown ledger bucket "alpha_sec"`},
	}
	for _, c := range cases {
		for i := 0; i < 20; i++ {
			var b BucketSet
			err := json.Unmarshal([]byte(c.in), &b)
			if c.wantErr != "" {
				if err == nil || err.Error() != c.wantErr {
					t.Fatalf("%s, try %d: err = %v, want %q", c.name, i, err, c.wantErr)
				}
				continue
			}
			if err != nil || b != c.want {
				t.Fatalf("%s: got %v, %v; want %v", c.name, b, err, c.want)
			}
		}
	}
}
