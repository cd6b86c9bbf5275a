package collective

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"segscale/internal/faultinject"
	"segscale/internal/topology"
	"segscale/internal/transport"
)

// allAlgorithms maps the allreduce implementations under test: the
// four flat algorithms plus the two-level hierarchical compositions.
// The hierarchical entries derive node groups from the exact machine
// for the world size (so prime worlds become 1 rank/node); the
// "-torus" and "-leader" variants pin the composition with synthetic
// link specs (zero latency forces the ring pick and the torus path;
// a huge α forces the latency-lean pick and the leader path), since
// the real Summit specs would otherwise choose by buffer size alone.
func allAlgorithms() map[string]allreduceFn {
	return map[string]allreduceFn{
		"naive": AllreduceNaive[float32],
		"ring":  AllreduceRing[float32],
		"rd":    AllreduceRecursiveDoubling[float32],
		"rab":   AllreduceRabenseifner[float32],
		"hier-2level": func(c *transport.Comm, group []int, buf []float32) error {
			return AllreduceHierTwoLevel(c, topology.ExactFor(len(group)), buf)
		},
		"hier-torus": func(c *transport.Comm, group []int, buf []float32) error {
			ringSpec := topology.LinkSpec{AlphaSec: 0, BWBytesPerSec: 1e12}
			return AllreduceHierGroups(c, exactNodeGroups(group), ringSpec, ringSpec, buf)
		},
		"hier-leader": func(c *transport.Comm, group []int, buf []float32) error {
			treeSpec := topology.LinkSpec{AlphaSec: 1, BWBytesPerSec: 1e12}
			return AllreduceHierGroups(c, exactNodeGroups(group), treeSpec, treeSpec, buf)
		},
	}
}

// exactNodeGroups partitions an identity rank group into the node
// groups of its exact machine layout.
func exactNodeGroups(group []int) [][]int {
	mach := topology.ExactFor(len(group))
	groups := make([][]int, mach.Nodes)
	for n := range groups {
		groups[n] = mach.NodeRanks(n)
	}
	return groups
}

// runAllreduceWorld executes one allreduce over a fresh world —
// optionally with a chaos plan armed — and returns every rank's
// output buffer.
func runAllreduceWorld(t *testing.T, fn allreduceFn, ins [][]float32, plan *faultinject.Plan) [][]float32 {
	t.Helper()
	p := len(ins)
	w, err := transport.NewWorld(p)
	if err != nil {
		t.Fatal(err)
	}
	if plan != nil {
		plan.Arm(w)
	}
	group := make([]int, p)
	for i := range group {
		group[i] = i
	}
	outs := make([][]float32, p)
	if err := w.Run(func(c *transport.Comm) error {
		buf := make([]float32, len(ins[c.Rank()]))
		copy(buf, ins[c.Rank()])
		if err := fn(c, group, buf); err != nil {
			return err
		}
		outs[c.Rank()] = buf
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return outs
}

// refSum is the sequential reference: an elementwise float64 sum in
// rank order, the ground truth every distributed algorithm must
// approximate.
func refSum(ins [][]float32) []float64 {
	if len(ins) == 0 {
		return nil
	}
	out := make([]float64, len(ins[0]))
	for _, in := range ins {
		for i, v := range in {
			out[i] += float64(v)
		}
	}
	return out
}

// TestPropertyAllreduceMatchesReference: for random world sizes,
// vector lengths, and inputs, every algorithm's output on every rank
// stays within float32 reassociation tolerance of the sequential
// float64 sum.
func TestPropertyAllreduceMatchesReference(t *testing.T) {
	for name, fn := range allAlgorithms() {
		fn := fn
		t.Run(name, func(t *testing.T) {
			prop := func(seed int64, pRaw, nRaw uint16) bool {
				p := 1 + int(pRaw%9) // 1..9 ranks
				n := int(nRaw % 300) // 0..299 elements (empty allowed)
				ins, _ := makeInputs(p, n, seed)
				outs := runAllreduceWorld(t, fn, ins, nil)
				want := refSum(ins)
				for r := 0; r < p; r++ {
					for i := range want {
						if math.Abs(float64(outs[r][i])-want[i]) > 1e-4*float64(p) {
							t.Logf("p=%d n=%d seed=%d rank %d elem %d: %g vs %g",
								p, n, seed, r, i, outs[r][i], want[i])
							return false
						}
					}
				}
				return true
			}
			cfg := &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(int64(len(name))))}
			if err := quick.Check(prop, cfg); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestPropertyRecoverableFaultsPreserveResults: message drop (with
// retries), duplication, and delay are invisible to the application —
// every algorithm must produce bitwise-identical buffers with and
// without a recoverable chaos plan armed. This is the correctness
// half of the fault-injection contract; the latency half lives in
// perfsim.
func TestPropertyRecoverableFaultsPreserveResults(t *testing.T) {
	plans := []*faultinject.Plan{
		{Seed: 11, DropRate: 0.08, MaxAttempts: 12},
		{Seed: 12, DupRate: 0.15},
		{Seed: 13, DelayRate: 0.15},
		{Seed: 14, DropRate: 0.04, DupRate: 0.05, DelayRate: 0.06, MaxAttempts: 12},
	}
	cases := []struct{ p, n int }{{2, 17}, {3, 64}, {5, 33}, {8, 1023}}
	for name, fn := range allAlgorithms() {
		fn := fn
		t.Run(name, func(t *testing.T) {
			for _, cse := range cases {
				ins, _ := makeInputs(cse.p, cse.n, int64(cse.p*1000+cse.n))
				clean := runAllreduceWorld(t, fn, ins, nil)
				for _, plan := range plans {
					if err := plan.Validate(); err != nil {
						t.Fatal(err)
					}
					faulty := runAllreduceWorld(t, fn, ins, plan)
					for r := 0; r < cse.p; r++ {
						for i := range clean[r] {
							if clean[r][i] != faulty[r][i] {
								t.Fatalf("p=%d n=%d plan %q rank %d elem %d: %g (clean) vs %g (faulty)",
									cse.p, cse.n, plan, r, i, clean[r][i], faulty[r][i])
							}
						}
					}
				}
			}
		})
	}
}
