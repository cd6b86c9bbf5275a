package faultinject

import (
	"sync"
	"testing"

	"segscale/internal/transport"
)

// TestPlanConcurrentUse hammers one shared Plan from many goroutines
// — the way every sending rank consults it — so -race verifies the
// pure-function contract (no mutable state behind Message/CrashAt/
// StragglerFactor).
func TestPlanConcurrentUse(t *testing.T) {
	p := &Plan{
		Seed: 99, DropRate: 0.1, DupRate: 0.1, DelayRate: 0.1,
		Crashes:    []Crash{{Rank: 1, Step: 10}},
		Stragglers: []Straggler{{Rank: 2, Factor: 2, ToStep: -1}},
	}
	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for seq := uint64(0); seq < 2000; seq++ {
				p.Message(g, (g+1)%goroutines, int(seq)%7, 0, seq)
				p.CrashAt(g, int(seq), 0)
				p.StragglerFactor(g, int(seq))
			}
		}(g)
	}
	wg.Wait()
}

// TestArmedWorldChaosUnderRace runs all-pairs traffic through a
// fault-armed world under -race: mailbox dedup/reorder paths and the
// retry loop must be data-race free while the injector fires.
func TestArmedWorldChaosUnderRace(t *testing.T) {
	const n = 4
	w, err := transport.NewWorld(n)
	if err != nil {
		t.Fatal(err)
	}
	plan := &Plan{Seed: 123, DropRate: 0.15, DupRate: 0.1, DelayRate: 0.15, MaxAttempts: 128}
	plan.Arm(w)
	err = w.Run(func(c *transport.Comm) error {
		for it := 0; it < 25; it++ {
			for peer := 0; peer < n; peer++ {
				if peer == c.Rank() {
					continue
				}
				if err := c.Send(peer, it, []float32{float32(c.Rank())}); err != nil {
					return err
				}
			}
			for peer := 0; peer < n; peer++ {
				if peer == c.Rank() {
					continue
				}
				got := make([]float32, 1)
				if err := c.RecvInto(peer, it, got); err != nil {
					return err
				}
				if got[0] != float32(peer) {
					t.Errorf("rank %d iter %d from %d: got %g", c.Rank(), it, peer, got[0])
				}
			}
			if err := c.Barrier(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("chaos run failed: %v", err)
	}
}
