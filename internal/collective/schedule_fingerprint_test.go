package collective

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"

	"segscale/internal/fp16"
	"segscale/internal/telemetry"
	"segscale/internal/timeline"
	"segscale/internal/topology"
	"segscale/internal/transport"
)

var updateFingerprint = flag.Bool("update", false, "rewrite testdata/schedule_fingerprint.golden")

// pinCase is one golden line: an entry point by name, the node
// partition it runs over (the flat algorithms take node 0's ranks as
// their group, the machine-shaped entry points the machine an even
// partition spells), the link specs AllreduceHierGroups is handed, and
// a buffer length.
type pinCase struct {
	name, shape  string
	groups       [][]int
	intra, inter topology.LinkSpec
	n            int
}

func pinExec[T Elem](cs pinCase, c *transport.Comm, buf []T) error {
	mach := topology.Machine{Nodes: len(cs.groups), GPUsPer: len(cs.groups[0])}
	switch cs.name {
	case "ring":
		return AllreduceRing(c, cs.groups[0], buf)
	case "rd":
		return AllreduceRecursiveDoubling(c, cs.groups[0], buf)
	case "rab":
		return AllreduceRabenseifner(c, cs.groups[0], buf)
	case "reduce+bcast":
		if err := ReduceTree(c, cs.groups[0], buf); err != nil {
			return err
		}
		return BcastTree(c, cs.groups[0], buf)
	case "hier-leader":
		return AllreduceHierLeader(c, mach, buf)
	case "hier-2level":
		return AllreduceHierTwoLevel(c, mach, buf)
	default:
		return AllreduceHierGroups(c, cs.groups, cs.intra, cs.inter, buf)
	}
}

// pinEncode puts a contribution on T's wire; pinDecode reads a result
// back as float32, which loses nothing: binary16 widens exactly.
func pinEncode[T Elem](in []float32) []T {
	out := make([]T, len(in))
	switch out := any(out).(type) {
	case []float32:
		copy(out, in)
	case []uint16:
		if err := fp16.Encode(in, out); err != nil {
			panic(err)
		}
	}
	return out
}

func pinDecode[T Elem](buf []T) []float32 {
	words, ok := any(buf).([]uint16)
	if !ok {
		return any(buf).([]float32)
	}
	out := make([]float32, len(words))
	if err := fp16.Decode(words, out); err != nil {
		panic(err)
	}
	return out
}

// sendLog is the recording injector: it never injects a fault, and
// remembers every delivery attempt the transport consults it about.
type sendLog struct {
	mu   sync.Mutex
	msgs []sentMsg
}

type sentMsg struct {
	src, dst, tag, attempt int
	seq                    uint64
}

func (l *sendLog) Message(src, dst, tag, attempt int, seq uint64) transport.Fault {
	l.mu.Lock()
	l.msgs = append(l.msgs, sentMsg{src, dst, tag, attempt, seq})
	l.mu.Unlock()
	return transport.FaultNone
}

// pinFingerprint runs one case on a fresh instrumented world and
// returns the SHA-256 of its transcript plus the tag bases it sent
// under. Inputs are seeded normals salted with what a reduce hop can
// mishandle: signed zeros, infinities, NaN, binary16 subnormals, a
// value the binary16 wire flushes to zero, and the binary16 extremes
// (whose sums overflow it). The transcript holds each rank's output
// bits (every NaN as one pattern: its sign and payload depend on the
// host's operand order, its NaN-ness does not), collective spans and
// transport and collective counters, then the send log with each
// (src, dst) pair's messages in sequence order — the order that pair's
// sender issued them in, whatever the interleaving between pairs was.
func pinFingerprint[T Elem](t *testing.T, cs pinCase) (sum string, bases map[int]bool) {
	world := len(slices.Concat(cs.groups...))
	ins, _ := makeInputs(world, cs.n, int64(world)*1_000_003+int64(cs.n))
	for r := range ins {
		for k, v := range []float32{0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)),
			float32(math.NaN()), 0x1p-24, -0x1p-20, 0x1.8p-15, 1e-8, 65504, -65504} {
			if cs.n > 0 {
				ins[r][(5*r+3*k+r*k)%cs.n] = v
			}
		}
	}
	tw, err := transport.NewWorld(world)
	if err != nil {
		t.Fatal(err)
	}
	log := &sendLog{}
	tw.SetInjector(log)
	ranks := make([]bytes.Buffer, world)
	if err := tw.Run(func(c *transport.Comm) error {
		r, out := c.Rank(), &ranks[c.Rank()]
		probe := telemetry.NewProbe(fmt.Sprintf("rank%d", r), telemetry.NewStepClock())
		c.SetProbe(probe)
		buf := pinEncode[T](ins[r])
		if err := pinExec(cs, c, buf); err != nil {
			return err
		}
		fmt.Fprintln(out, "rank", r, len(buf))
		for _, v := range pinDecode(buf) {
			if v != v {
				v = math.Float32frombits(0x7FC00000)
			}
			binary.Write(out, binary.LittleEndian, v)
		}
		for _, sp := range probe.Tracer().Spans() {
			if sp.Phase != timeline.PhaseSend && sp.Phase != timeline.PhaseRecv {
				fmt.Fprintln(out, "span", sp.Phase, sp.Name)
			}
		}
		for _, name := range []string{"transport_sends_total", "transport_sent_bytes", "collective_ops_total", "collective_payload_bytes"} {
			fmt.Fprintln(out, name, probe.Counter(name).Value())
		}
		return nil
	}); err != nil {
		t.Fatalf("%s %s n=%d: %v", cs.name, cs.shape, cs.n, err)
	}
	h := sha256.New()
	for r := range ranks {
		h.Write(ranks[r].Bytes())
	}
	slices.SortFunc(log.msgs, func(a, b sentMsg) int {
		return cmp.Or(cmp.Compare(a.src, b.src), cmp.Compare(a.dst, b.dst), cmp.Compare(a.seq, b.seq))
	})
	bases = map[int]bool{}
	for _, m := range log.msgs {
		fmt.Fprintln(h, "msg", m.src, m.dst, m.seq, m.tag>>16, m.tag&0xFFFF, m.attempt)
		bases[m.tag>>16] = true
	}
	return fmt.Sprintf("%x", h.Sum(nil)), bases
}

// pinSwitches returns every length in (lo, hi] at which PickLevelAlg's
// choice for p ranks over l differs from its choice one element
// earlier. Every algorithm's cost is affine in the length, so the
// cheapest changes at most once per algorithm and the same pick at
// both ends means no switch between them.
func pinSwitches(l topology.LinkSpec, p, lo, hi int) []int {
	switch {
	case topology.PickLevelAlg(l, p, lo) == topology.PickLevelAlg(l, p, hi):
		return nil
	case hi == lo+1:
		return []int{hi}
	}
	mid := lo + (hi-lo)/2
	return append(pinSwitches(l, p, lo, mid), pinSwitches(l, p, mid, hi)...)
}

// pinHierLengths returns the lengths a two-level case runs at: two
// small ones, then both sides of every switch in the intra pick (ring
// means torus on an even partition) and in the inter pick — over the
// whole buffer as the leader composition makes it, and over one of g
// segments as the torus does (at g·s−1 the cross groups disagree on
// the algorithm, which is legal: each agrees with itself).
func pinHierLengths(groups [][]int, intra, inter topology.LinkSpec) []int {
	const limit = 120_000
	g := len(groups[0])
	lengths := []int{1, 257}
	for _, s := range pinSwitches(intra, g, 1, limit) {
		lengths = append(lengths, s-1, s)
	}
	for _, s := range pinSwitches(inter, len(groups), 1, limit) {
		lengths = append(lengths, s-1, s, g*s-1, g*s)
	}
	slices.Sort(lengths)
	return slices.Compact(lengths)
}

// pinCases lists every case, in golden order.
func pinCases() (cases []pinCase) {
	for p := 1; p <= 9; p++ {
		for _, n := range []int{0, 1, 257} {
			for _, name := range []string{"ring", "rd", "rab", "reduce+bcast"} {
				cases = append(cases, pinCase{name: name, shape: fmt.Sprint("p", p), groups: identityGroups(p), n: n})
			}
		}
	}
	// Node partitions by ranks per node. Under the "small" specs every
	// PickLevelAlg switch sits at a few hundred to a few thousand
	// elements; a zero-latency intra level forces the ring pick, so the
	// torus runs wherever the partition is even.
	summitIntra, summitInter := topology.SummitLinkSpecs()
	small := topology.LinkSpec{AlphaSec: 1e-6, BWBytesPerSec: 4e9}
	ring := topology.LinkSpec{AlphaSec: 0, BWBytesPerSec: 1e12}
	for _, sizes := range [][]int{
		{1}, {2}, {3}, {1, 1}, {2, 2}, {3, 3}, {1, 1, 1}, {2, 2, 2}, {3, 3, 3}, {4, 4},
		// Where the Summit specs switch picks: 1×5, 5×1, 4×2, 7×1, 9×1.
		{5}, {1, 1, 1, 1, 1}, {2, 2, 2, 2}, {1, 1, 1, 1, 1, 1, 1}, {1, 1, 1, 1, 1, 1, 1, 1, 1},
		// Uneven: what an elastic world hands the runtime. 3-2-3 is a
		// 3×3 machine that lost slot 4.
		{2, 1}, {3, 3, 1}, {4, 4, 1}, {3, 2, 3},
	} {
		cs := pinCase{shape: strings.ReplaceAll(strings.Trim(fmt.Sprint(sizes), "[]"), " ", "-"), groups: identityGroups(sizes...)}
		add := func(name string, intra, inter topology.LinkSpec, lengths []int) {
			cs.name, cs.intra, cs.inter = name, intra, inter
			for _, cs.n = range lengths {
				cases = append(cases, cs)
			}
		}
		if !slices.ContainsFunc(sizes, func(s int) bool { return s != sizes[0] }) {
			add("hier-leader", summitIntra, summitInter, []int{1, 257})
			add("hier-2level", summitIntra, summitInter, pinHierLengths(cs.groups, summitIntra, summitInter))
		} else {
			add("hier-groups/summit", summitIntra, summitInter, pinHierLengths(cs.groups, summitIntra, summitInter))
		}
		add("hier-groups/small", small, small, pinHierLengths(cs.groups, small, small))
		add("hier-groups/torus", ring, small, pinHierLengths(cs.groups, ring, small))
	}
	return cases
}

// pinLines fingerprints every case on T's wire, one golden line each,
// and checks that the hierarchical cases exercised both compositions
// and all three inter-node picks, read off the tags they sent under.
func pinLines[T Elem](t *testing.T, wire string) (lines []string) {
	hier := map[int]bool{}
	for _, cs := range pinCases() {
		sum, bases := pinFingerprint[T](t, cs)
		lines = append(lines, fmt.Sprintln(cs.name, wire, cs.shape, cs.n, sum))
		for b := range bases {
			hier[b] = hier[b] || strings.HasPrefix(cs.name, "hier")
		}
	}
	w := wireOf[T]()
	for _, tag := range []int{w.tagHierRS, w.tagHierAG, w.tagReduce, w.tagBcast, w.tagRing, w.tagRD, w.tagRab} {
		if !hier[tag>>16] {
			t.Errorf("%s: no hierarchical case sent under tag base %d<<16", wire, tag>>16)
		}
	}
	return lines
}

// TestScheduleFingerprint pins every allreduce composition bit for bit
// and tag for tag. faultinject.Plan.Message draws faults from a hash
// of (src, dst, tag, attempt, seq), so a moved tag or a reordered send
// silently re-rolls every chaos golden; here it fails by name.
// Regenerate — only when changing a schedule is the stated purpose of
// the change — with
// `go test ./internal/collective/ -run TestScheduleFingerprint -update`.
func TestScheduleFingerprint(t *testing.T) {
	const path = "testdata/schedule_fingerprint.golden"
	got := append(pinLines[float32](t, "fp32"), pinLines[uint16](t, "fp16")...)
	if *updateFingerprint {
		if err := os.WriteFile(path, []byte(strings.Join(got, "")), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.SplitAfter(strings.TrimSuffix(string(golden), "\n"), "\n")
	if len(got) != len(want) {
		t.Fatalf("%d cases, %s has %d", len(got), path, len(want))
	}
	for i := range got {
		if strings.TrimSpace(got[i]) != strings.TrimSpace(want[i]) {
			t.Errorf("line %d:\n got %swant %s", i+1, got[i], want[i])
		}
	}
}
