package faultinject

import (
	"errors"
	"math"
	"strings"
	"testing"

	"segscale/internal/transport"
)

// TestMessageDeterministic: identical plans make identical decisions
// for every event identity.
func TestMessageDeterministic(t *testing.T) {
	a := &Plan{Seed: 42, DropRate: 0.2, DupRate: 0.1, DelayRate: 0.1}
	b := &Plan{Seed: 42, DropRate: 0.2, DupRate: 0.1, DelayRate: 0.1}
	for src := 0; src < 4; src++ {
		for dst := 0; dst < 4; dst++ {
			for seq := uint64(0); seq < 50; seq++ {
				fa := a.Message(src, dst, 3, 0, seq)
				fb := b.Message(src, dst, 3, 0, seq)
				if fa != fb {
					t.Fatalf("(%d,%d,seq %d): %v vs %v", src, dst, seq, fa, fb)
				}
			}
		}
	}
}

// TestMessageSeedSensitivity: different seeds must produce different
// fault sequences (else the "seed" is decorative).
func TestMessageSeedSensitivity(t *testing.T) {
	a := &Plan{Seed: 1, DropRate: 0.5}
	b := &Plan{Seed: 2, DropRate: 0.5}
	diff := 0
	for seq := uint64(0); seq < 200; seq++ {
		if a.Message(0, 1, 0, 0, seq) != b.Message(0, 1, 0, 0, seq) {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("seeds 1 and 2 produced identical fault sequences")
	}
}

// TestMessageRates: empirical fault frequencies track the configured
// probabilities over a large sample.
func TestMessageRates(t *testing.T) {
	p := &Plan{Seed: 7, DropRate: 0.10, DupRate: 0.05, DelayRate: 0.20}
	const n = 50000
	counts := map[transport.Fault]int{}
	for seq := uint64(0); seq < n; seq++ {
		counts[p.Message(0, 1, 0, 0, seq)]++
	}
	check := func(f transport.Fault, want float64) {
		got := float64(counts[f]) / n
		if math.Abs(got-want) > 0.01 {
			t.Errorf("%v rate = %.4f, want %.2f ± 0.01", f, got, want)
		}
	}
	check(transport.FaultDrop, 0.10)
	check(transport.FaultDuplicate, 0.05)
	check(transport.FaultDelay, 0.20)
	check(transport.FaultNone, 0.65)
}

// TestMessageAttemptRerolls: a dropped attempt re-rolls on retry, so
// with DropRate < 1 some retry eventually delivers.
func TestMessageAttemptRerolls(t *testing.T) {
	p := &Plan{Seed: 3, DropRate: 0.5}
	for seq := uint64(0); seq < 100; seq++ {
		delivered := false
		for attempt := 0; attempt < 64; attempt++ {
			if p.Message(0, 1, 0, attempt, seq) != transport.FaultDrop {
				delivered = true
				break
			}
		}
		if !delivered {
			t.Fatalf("seq %d dropped on 64 consecutive attempts at rate 0.5", seq)
		}
	}
}

func TestNilAndZeroPlanInjectNothing(t *testing.T) {
	var nilPlan *Plan
	if f := nilPlan.Message(0, 1, 0, 0, 0); f != transport.FaultNone {
		t.Errorf("nil plan injected %v", f)
	}
	if nilPlan.CrashAt(0, 0, 0) {
		t.Error("nil plan crashed a rank")
	}
	if f := nilPlan.StragglerFactor(0, 0); f != 1 {
		t.Errorf("nil plan straggler factor %g", f)
	}
	zero := &Plan{Seed: 9}
	for seq := uint64(0); seq < 100; seq++ {
		if f := zero.Message(0, 1, 0, 0, seq); f != transport.FaultNone {
			t.Fatalf("zero-rate plan injected %v", f)
		}
	}
}

func TestCrashAt(t *testing.T) {
	p := &Plan{Crashes: []Crash{{Rank: 1, Step: 12}, {Rank: 2, Step: 5, Incarnation: 1}}}
	cases := []struct {
		rank, step, inc int
		want            bool
	}{
		{1, 12, 0, true},
		{1, 12, 1, false}, // after restart the incarnation moved on
		{1, 11, 0, false},
		{0, 12, 0, false},
		{2, 5, 1, true},
		{2, 5, 0, false},
	}
	for _, c := range cases {
		if got := p.CrashAt(c.rank, c.step, c.inc); got != c.want {
			t.Errorf("CrashAt(%d,%d,%d) = %v, want %v", c.rank, c.step, c.inc, got, c.want)
		}
	}
}

func TestStragglerFactor(t *testing.T) {
	p := &Plan{Stragglers: []Straggler{
		{Rank: 1, Factor: 2, FromStep: 10, ToStep: 20},
		{Rank: 1, Factor: 3, FromStep: 15, ToStep: -1},
		{Rank: 2, Factor: 1.5, FromStep: 0, ToStep: -1},
	}}
	cases := []struct {
		rank, step int
		want       float64
	}{
		{1, 9, 1},
		{1, 10, 2},
		{1, 15, 6}, // both windows overlap: factors compose
		{1, 21, 3}, // first window closed, open-ended one persists
		{2, 999, 1.5},
		{0, 10, 1},
	}
	for _, c := range cases {
		if got := p.StragglerFactor(c.rank, c.step); got != c.want {
			t.Errorf("StragglerFactor(%d,%d) = %g, want %g", c.rank, c.step, got, c.want)
		}
	}
}

func TestValidate(t *testing.T) {
	bad := []*Plan{
		{DropRate: -0.1},
		{DupRate: 1.5},
		{DropRate: 0.6, DelayRate: 0.6}, // sum > 1
		{MaxAttempts: -1},
		{Crashes: []Crash{{Rank: -1}}},
		{Stragglers: []Straggler{{Rank: 0, Factor: 0.5}}},
		{Stragglers: []Straggler{{Rank: 0, Factor: 2, FromStep: 10, ToStep: 5}}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("plan %d (%+v) validated", i, p)
		}
	}
	good := []*Plan{
		nil,
		{},
		{Seed: 1, DropRate: 0.3, DupRate: 0.3, DelayRate: 0.4},
		{Crashes: []Crash{{Rank: 0, Step: 0}}, Stragglers: []Straggler{{Factor: 1, ToStep: -1}}},
	}
	for i, p := range good {
		if err := p.Validate(); err != nil {
			t.Errorf("plan %d: unexpected error %v", i, err)
		}
	}
}

func TestRandomPlanDeterministicAndValid(t *testing.T) {
	a := RandomPlan(11, 6)
	b := RandomPlan(11, 6)
	if a.String() != b.String() {
		t.Fatalf("RandomPlan not deterministic:\n%s\n%s", a, b)
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("RandomPlan invalid: %v", err)
	}
	if len(a.Crashes) != 0 {
		t.Errorf("RandomPlan scheduled crashes: %+v", a.Crashes)
	}
	if len(a.Stragglers) != 1 || a.Stragglers[0].Rank >= 6 {
		t.Errorf("RandomPlan stragglers = %+v", a.Stragglers)
	}
	if c := RandomPlan(12, 6); c.String() == a.String() {
		t.Error("different seeds produced identical random plans")
	}
	if w1 := RandomPlan(11, 1); len(w1.Stragglers) != 0 {
		t.Errorf("single-rank world got a straggler: %+v", w1.Stragglers)
	}
}

func TestParseSpecRoundTrip(t *testing.T) {
	spec := "seed=7;drop=0.01;dup=0.002;delay=0.05;retries=8;crash=1@12;crash=2@30#1;slow=3*2.5@0-40;slow=0*1.5"
	p, err := ParseSpec(spec)
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	if p.Seed != 7 || p.DropRate != 0.01 || p.DupRate != 0.002 || p.DelayRate != 0.05 || p.MaxAttempts != 8 {
		t.Fatalf("parsed plan %+v", p)
	}
	if len(p.Crashes) != 2 || p.Crashes[1] != (Crash{Rank: 2, Step: 30, Incarnation: 1}) {
		t.Fatalf("crashes %+v", p.Crashes)
	}
	if len(p.Stragglers) != 2 || p.Stragglers[0] != (Straggler{Rank: 3, Factor: 2.5, FromStep: 0, ToStep: 40}) {
		t.Fatalf("stragglers %+v", p.Stragglers)
	}
	if p.Stragglers[1].ToStep != -1 {
		t.Fatalf("windowless straggler not open-ended: %+v", p.Stragglers[1])
	}
	// Round trip: the rendered spec parses back to the same plan.
	p2, err := ParseSpec(p.String())
	if err != nil {
		t.Fatalf("reparse %q: %v", p.String(), err)
	}
	if p2.String() != p.String() {
		t.Fatalf("round trip changed plan:\n%s\n%s", p, p2)
	}
}

func TestParseSpecErrors(t *testing.T) {
	bad := []string{
		"bogus",
		"frob=1",
		"drop=many",
		"drop=1.5",
		"crash=1",
		"crash=x@2",
		"crash=1@y",
		"crash=1@2#z",
		"slow=1",
		"slow=a*2",
		"slow=1*b",
		"slow=1*2@5",
		"slow=1*2@a-b",
		"slow=1*0.5",
		"seed=NaN",
		"retries=x",
	}
	for _, spec := range bad {
		if _, err := ParseSpec(spec); err == nil {
			t.Errorf("ParseSpec(%q) accepted", spec)
		}
	}
	// Empty clauses and whitespace are tolerated.
	p, err := ParseSpec(" drop=0.1 ; ; ")
	if err != nil || p.DropRate != 0.1 {
		t.Fatalf("lenient parse: %+v, %v", p, err)
	}
}

func TestStringEmptyAndNil(t *testing.T) {
	var nilPlan *Plan
	if s := nilPlan.String(); s != "" {
		t.Errorf("nil plan String() = %q", s)
	}
	if s := (&Plan{}).String(); s != "" {
		t.Errorf("zero plan String() = %q", s)
	}
}

// TestArmOnTransport runs real ring traffic through a fault-armed
// world: everything must still deliver (recoverable faults only), and
// a plan heavy enough to exhaust retries must surface
// ErrDeliveryFailed.
func TestArmOnTransport(t *testing.T) {
	w, err := transport.NewWorld(3)
	if err != nil {
		t.Fatal(err)
	}
	plan := &Plan{Seed: 5, DropRate: 0.2, DupRate: 0.1, DelayRate: 0.2, MaxAttempts: 64}
	plan.Arm(w)
	err = w.Run(func(c *transport.Comm) error {
		n := c.Size()
		next, prev := (c.Rank()+1)%n, (c.Rank()-1+n)%n
		for it := 0; it < 30; it++ {
			if err := c.Send(next, it, []float32{float32(c.Rank()*100 + it)}); err != nil {
				return err
			}
			got := make([]float32, 1)
			if err := c.RecvInto(prev, it, got); err != nil {
				return err
			}
			if want := float32(prev*100 + it); got[0] != want {
				t.Errorf("rank %d iter %d got %g, want %g", c.Rank(), it, got[0], want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("recoverable chaos run failed: %v", err)
	}

	// Certain drop with a tiny budget: delivery must fail, not hang.
	w2, err := transport.NewWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	(&Plan{Seed: 5, DropRate: 1, MaxAttempts: 3}).Arm(w2)
	sendErr := w2.Comm(0).Send(1, 0, []float32{1})
	if !errors.Is(sendErr, transport.ErrDeliveryFailed) {
		t.Fatalf("send under certain drop = %v, want ErrDeliveryFailed", sendErr)
	}
}

func TestErrCrashedMessage(t *testing.T) {
	if !strings.Contains(ErrCrashed.Error(), "crash") {
		t.Errorf("ErrCrashed = %q", ErrCrashed)
	}
}
