package traceanalysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"

	"segscale/internal/timeline"
)

// LedgerSchema versions the attribution ledger's JSON shape; readers
// reject other versions rather than mis-diffing.
const LedgerSchema = 1

// Bucket indices. The ledger decomposes one rank's step wall time into
// these buckets; by construction they sum exactly to the step's wall
// time, so "where did the step go" always adds to 100%.
const (
	BucketDataStall  = iota // waiting on the input pipeline
	BucketForward           // forward-pass compute
	BucketBackward          // backward-pass compute
	BucketInterrupts        // OS/jitter interruptions and recovery work
	BucketPack              // fusion-buffer pack/unpack memcpy
	BucketWire              // allreduce wire time (bandwidth + latency terms)
	BucketIdleWait          // idle, blocked on a slower rank (see BlameRank)
	BucketExposed           // communication not overlapped with compute
	BucketOverhead          // residual: everything the trace did not cover
	NumBuckets
)

// BucketNames gives each bucket's canonical snake_case name, in index
// order — the vocabulary shared by the JSON ledger, the Prometheus
// gauges, and seg-compare's per-bucket deltas.
var BucketNames = [NumBuckets]string{
	"data_stall", "forward", "backward", "interrupts", "pack",
	"allreduce_wire", "idle_wait", "exposed_comm", "overhead",
}

// BucketSet holds seconds per bucket, indexed by the Bucket* consts.
type BucketSet [NumBuckets]float64

// Sum totals the buckets — by the ledger invariant, the step's wall
// time.
func (b BucketSet) Sum() float64 {
	s := 0.0
	for _, v := range b {
		s += v
	}
	return s
}

// MarshalJSON renders the set as a fixed-order object keyed by bucket
// name ("data_stall_sec": ...). The order and float formatting are
// deterministic, which is what lets a seeded run's ledger serve as a
// byte-identical golden file.
func (b BucketSet) MarshalJSON() ([]byte, error) {
	var buf bytes.Buffer
	buf.WriteByte('{')
	for i, name := range BucketNames {
		if i > 0 {
			buf.WriteByte(',')
		}
		fmt.Fprintf(&buf, "%q:", name+"_sec")
		v, err := json.Marshal(b[i])
		if err != nil {
			return nil, err
		}
		buf.Write(v)
	}
	buf.WriteByte('}')
	return buf.Bytes(), nil
}

// UnmarshalJSON accepts the object form MarshalJSON writes. Unknown
// keys error: a key mismatch means a schema drift seg-compare must not
// paper over. The error names the lexically first unknown key, so the
// same input always gives the same message.
func (b *BucketSet) UnmarshalJSON(data []byte) error {
	raw := map[string]float64{}
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	for i, name := range BucketNames {
		if v, ok := raw[name+"_sec"]; ok {
			b[i] = v
			delete(raw, name+"_sec")
		}
	}
	if len(raw) == 0 {
		return nil
	}
	unknown := make([]string, 0, len(raw))
	for k := range raw {
		unknown = append(unknown, k)
	}
	sort.Strings(unknown)
	return fmt.Errorf("traceanalysis: unknown ledger bucket %q", unknown[0])
}

// StepAttribution is one (step, rank) row of the ledger: the rank's
// wall time for that step, its bucket decomposition, and — when the
// rank spent time idle-waiting — which rank it waited on and through
// which message edge the blame was established.
type StepAttribution struct {
	Step      int       `json:"step"`
	Rank      int       `json:"rank"`
	StepSec   float64   `json:"step_sec"`
	Buckets   BucketSet `json:"buckets"`
	BlameRank int       `json:"blame_rank"` // -1: no rank blamed
	BlameEdge string    `json:"blame_edge,omitempty"`
}

// Ledger is the full attribution table for one run.
type Ledger struct {
	Schema int               `json:"schema"`
	Source string            `json:"source"` // "perfsim" or "trace"
	Ranks  int               `json:"ranks"`
	Steps  []StepAttribution `json:"steps"`
}

// Sort orders rows by (step, rank) — the canonical ledger order every
// writer emits.
func (l *Ledger) Sort() {
	sort.Slice(l.Steps, func(i, j int) bool {
		if l.Steps[i].Step != l.Steps[j].Step {
			return l.Steps[i].Step < l.Steps[j].Step
		}
		return l.Steps[i].Rank < l.Steps[j].Rank
	})
}

// Validate checks the ledger's structural invariants: known schema,
// positive rank count, rows within [0, Ranks), and — the defining
// one — each row's buckets summing to its step wall time within eps.
func (l *Ledger) Validate(eps float64) error {
	if l.Schema != LedgerSchema {
		return fmt.Errorf("traceanalysis: ledger schema %d, want %d", l.Schema, LedgerSchema)
	}
	if l.Ranks <= 0 {
		return fmt.Errorf("traceanalysis: ledger has %d ranks", l.Ranks)
	}
	if eps <= 0 {
		eps = 1e-9
	}
	for i, s := range l.Steps {
		if s.Rank < 0 || s.Rank >= l.Ranks {
			return fmt.Errorf("traceanalysis: ledger row %d: rank %d outside %d ranks", i, s.Rank, l.Ranks)
		}
		if s.BlameRank < -1 || s.BlameRank >= l.Ranks {
			return fmt.Errorf("traceanalysis: ledger row %d: blame rank %d outside %d ranks", i, s.BlameRank, l.Ranks)
		}
		for b, v := range s.Buckets {
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("traceanalysis: ledger row %d: bucket %s = %g", i, BucketNames[b], v)
			}
		}
		if diff := math.Abs(s.Buckets.Sum() - s.StepSec); diff > eps {
			return fmt.Errorf("traceanalysis: ledger row %d (step %d rank %d): buckets sum to %g, step wall is %g (|Δ|=%g > eps %g)",
				i, s.Step, s.Rank, s.Buckets.Sum(), s.StepSec, diff, eps)
		}
	}
	return nil
}

// BucketMeans averages each bucket across all rows (zero ledger →
// zeros) — the headline "where does a step go on average" view.
func (l *Ledger) BucketMeans() BucketSet {
	var sum BucketSet
	if len(l.Steps) == 0 {
		return sum
	}
	for _, s := range l.Steps {
		for i, v := range s.Buckets {
			sum[i] += v
		}
	}
	for i := range sum {
		sum[i] /= float64(len(l.Steps))
	}
	return sum
}

// BucketSamples collects one bucket's per-row samples, the input to
// seg-compare's significance test.
func (l *Ledger) BucketSamples(bucket int) []float64 {
	out := make([]float64, 0, len(l.Steps))
	for _, s := range l.Steps {
		out = append(out, s.Buckets[bucket])
	}
	return out
}

// BlameCounts tallies how often each rank was blamed for idle waits.
// Index r is the number of rows naming rank r; rows blaming no one are
// not counted.
func (l *Ledger) BlameCounts() []int {
	out := make([]int, l.Ranks)
	for _, s := range l.Steps {
		if s.BlameRank >= 0 && s.BlameRank < l.Ranks {
			out[s.BlameRank]++
		}
	}
	return out
}

// WriteLedger emits canonical, reproducible JSON: rows sorted, two-
// space indent, trailing newline. Byte-identical output for identical
// ledgers is a contract — the perfsim golden test depends on it.
func (l *Ledger) WriteLedger(w io.Writer) error {
	l.Sort()
	out, err := json.MarshalIndent(l, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	_, err = w.Write(out)
	return err
}

// ReadLedger parses and validates a ledger stream.
func ReadLedger(r io.Reader) (*Ledger, error) {
	var l Ledger
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&l); err != nil {
		return nil, fmt.Errorf("traceanalysis: parsing ledger: %w", err)
	}
	if err := l.Validate(SumEpsilon); err != nil {
		return nil, err
	}
	return &l, nil
}

// SumEpsilon is the tolerance for the buckets-sum-to-wall invariant:
// one float64 ulp per bucket on second-scale values, with margin.
const SumEpsilon = 1e-9

// LedgerRecorder accumulates attribution rows as a run produces them —
// perfsim records one row per (step, rank). Safe for concurrent use; a
// nil recorder is a valid no-op.
type LedgerRecorder struct {
	mu     sync.Mutex
	source string
	ranks  int
	steps  []StepAttribution
}

// NewLedgerRecorder returns a recorder for a run with the given
// source label ("perfsim", "trace") and rank count.
func NewLedgerRecorder(source string, ranks int) *LedgerRecorder {
	return &LedgerRecorder{source: source, ranks: ranks}
}

// Record appends one row. Nil-safe.
func (r *LedgerRecorder) Record(sa StepAttribution) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.steps = append(r.steps, sa)
	r.mu.Unlock()
}

// Len returns how many rows have been recorded.
func (r *LedgerRecorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.steps)
}

// Ledger snapshots the recorded rows as a sorted ledger.
func (r *LedgerRecorder) Ledger() *Ledger {
	if r == nil {
		return &Ledger{Schema: LedgerSchema, Source: "none", Ranks: 0}
	}
	r.mu.Lock()
	steps := make([]StepAttribution, len(r.steps))
	copy(steps, r.steps)
	source, ranks := r.source, r.ranks
	r.mu.Unlock()
	l := &Ledger{Schema: LedgerSchema, Source: source, Ranks: ranks, Steps: steps}
	l.Sort()
	return l
}

// tracePriorities maps trace phases to buckets, highest priority
// first. AttributeTrace sweeps a step window bucket by bucket in this
// order: each phase's intervals are clipped to the window, the part
// already claimed by a higher-priority bucket is subtracted, and the
// remainder is both credited to the bucket and merged into the claimed
// set. The sweep makes the decomposition an exact partition — overlaps
// are counted once, by the higher-priority bucket — and whatever no
// span claimed lands in the overhead residual, so the buckets sum to
// the window width by construction.
var tracePriorities = []struct {
	bucket int
	phases []string
}{
	{BucketDataStall, []string{timeline.PhaseWait}},
	{BucketForward, []string{timeline.PhaseForward}},
	{BucketBackward, []string{timeline.PhaseBackward}},
	{BucketInterrupts, []string{timeline.PhaseRecovery}},
	{BucketPack, []string{timeline.PhaseMemcpy}},
	{BucketWire, []string{timeline.PhaseAllreduce}},
	{BucketIdleWait, []string{timeline.PhaseRecv, timeline.PhaseBarrier, timeline.PhaseNegotiate}},
	{BucketExposed, []string{timeline.PhaseSend, timeline.PhaseBcast, timeline.PhaseAllgather}},
}

// interval is a half-open [lo, hi) span of trace time.
type interval struct{ lo, hi float64 }

// subtract returns the parts of iv not covered by the sorted,
// disjoint claimed set.
func subtract(iv interval, claimed []interval) []interval {
	out := []interval{iv}
	for _, c := range claimed {
		var next []interval
		for _, p := range out {
			if c.hi <= p.lo || c.lo >= p.hi {
				next = append(next, p)
				continue
			}
			if c.lo > p.lo {
				next = append(next, interval{p.lo, c.lo})
			}
			if c.hi < p.hi {
				next = append(next, interval{c.hi, p.hi})
			}
		}
		out = next
	}
	return out
}

// merge inserts iv into the claimed set, keeping it sorted and
// disjoint.
func merge(claimed []interval, iv interval) []interval {
	claimed = append(claimed, iv)
	sort.Slice(claimed, func(i, j int) bool { return claimed[i].lo < claimed[j].lo })
	out := claimed[:1]
	for _, c := range claimed[1:] {
		last := &out[len(out)-1]
		if c.lo <= last.hi {
			if c.hi > last.hi {
				last.hi = c.hi
			}
		} else {
			out = append(out, c)
		}
	}
	return out
}

// measure sums interval widths.
func measure(ivs []interval) float64 {
	s := 0.0
	for _, iv := range ivs {
		s += iv.hi - iv.lo
	}
	return s
}

// LaneRank extracts the rank from a lane name of the forms the
// training loop and exporters produce: "rank3", "rank3.r1" (recovery
// incarnations), "tid3" (read back from a Chrome trace). Returns -1
// when the lane carries no rank.
func LaneRank(lane string) int {
	for _, prefix := range []string{"rank", "tid"} {
		if !strings.HasPrefix(lane, prefix) {
			continue
		}
		rest := lane[len(prefix):]
		if dot := strings.IndexByte(rest, '.'); dot >= 0 {
			rest = rest[:dot]
		}
		if n, err := strconv.Atoi(rest); err == nil && n >= 0 {
			return n
		}
	}
	return -1
}

// AttributeTrace walks the happens-before DAG and decomposes every
// rank's TRAIN_STEP windows into the ledger's buckets. Within each
// window the priority sweep over tracePriorities partitions the wall
// time exactly; the idle-wait bucket's blame edge is the matched recv
// edge contributing the most claimed time in the window (the message
// whose late arrival the rank spent longest waiting for), and the
// blamed rank is that edge's sender.
func AttributeTrace(rec *timeline.Recorder, d *DAG) (*Ledger, error) {
	if rec == nil || len(rec.Events) == 0 {
		return nil, fmt.Errorf("traceanalysis: trace has no events")
	}
	if d == nil {
		d = BuildDAG(rec)
	}
	maxRank := -1
	for _, lane := range d.Lanes {
		if r := LaneRank(lane); r > maxRank {
			maxRank = r
		}
	}
	if maxRank < 0 {
		return nil, fmt.Errorf("traceanalysis: no rank lanes in trace")
	}
	l := &Ledger{Schema: LedgerSchema, Source: "trace", Ranks: maxRank + 1}

	// Events are already in per-lane program order inside the DAG.
	// Group each lane's events, then attribute each TRAIN_STEP window.
	for start := 0; start < len(d.Events); {
		end := start
		for end < len(d.Events) && d.Events[end].Lane == d.Events[start].Lane {
			end++
		}
		lane := d.Events[start:end]
		rank := LaneRank(lane[0].Lane)
		if rank >= 0 {
			stepIdx := 0
			for _, ev := range lane {
				if ev.Phase != timeline.PhaseStep {
					continue
				}
				row := attributeWindow(lane, ev, d, rank, stepIdx)
				l.Steps = append(l.Steps, row)
				stepIdx++
			}
		}
		start = end
	}
	if len(l.Steps) == 0 {
		return nil, fmt.Errorf("traceanalysis: no %s windows in trace", timeline.PhaseStep)
	}
	l.Sort()
	return l, nil
}

// attributeWindow runs the priority sweep over one lane's step window.
func attributeWindow(lane []timeline.Event, win timeline.Event, d *DAG, rank, stepIdx int) StepAttribution {
	row := StepAttribution{Step: stepIdx, Rank: rank, BlameRank: -1}
	var claimed []interval
	blameBest := 0.0
	for _, pr := range tracePriorities {
		for _, ev := range lane {
			if !phaseIn(ev.Phase, pr.phases) {
				continue
			}
			iv := interval{math.Max(ev.Start, win.Start), math.Min(ev.End, win.End)}
			if iv.hi <= iv.lo {
				continue
			}
			free := subtract(iv, claimed)
			got := measure(free)
			if got <= 0 {
				continue
			}
			row.Buckets[pr.bucket] += got
			for _, f := range free {
				claimed = merge(claimed, f)
			}
			// Blame: the matched recv edge that claimed the most
			// idle-wait time names the rank this rank stood waiting on.
			if pr.bucket == BucketIdleWait && ev.Phase == timeline.PhaseRecv && ev.Edge != "" {
				if _, ok := d.Matched[ev.Edge]; ok && (got > blameBest || (got == blameBest && ev.Edge < row.BlameEdge)) {
					if e, err := timeline.ParseEdge(ev.Edge); err == nil {
						blameBest = got
						row.BlameEdge = ev.Edge
						row.BlameRank = e.Src
					}
				}
			}
		}
	}
	// Residual: window time no span claimed.
	wall := win.End - win.Start
	covered := measure(claimed)
	if wall > covered {
		row.Buckets[BucketOverhead] = wall - covered
	}
	// The ledger invariant — buckets sum exactly to the step wall — is
	// enforced by defining StepSec as the sum; it equals the window
	// width up to float rounding, which Validate checks against eps.
	row.StepSec = row.Buckets.Sum()
	return row
}

func phaseIn(p string, set []string) bool {
	for _, s := range set {
		if p == s {
			return true
		}
	}
	return false
}
