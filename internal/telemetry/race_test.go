package telemetry

import (
	"fmt"
	"sync"
	"testing"
)

// TestConcurrentPerRankWrites drives the exact concurrency shape the
// real training path produces — one goroutine per rank writing spans
// and metrics into probes attached to a shared collector, while the
// collector is read — and exists primarily as the -race target for
// this package.
func TestConcurrentPerRankWrites(t *testing.T) {
	const ranks = 8
	const steps = 50
	col := NewCollector()
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			p := col.NewProbe(fmt.Sprintf("rank%d", rank), NewStepClock())
			for s := 0; s < steps; s++ {
				sp := p.Span("FORWARD", "step")
				p.Counter("train_steps_total").Inc()
				p.Counter("transport_sent_bytes").Add(float64(4 * s))
				p.Gauge("des_queue_depth_events").Set(float64(s))
				p.Histogram("train_step_ops", ExpBuckets(1, 2, 8)).Observe(float64(s))
				sp.End()
			}
		}(r)
	}
	// Concurrent reads while ranks write.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			col.Gather()
			col.Timeline()
		}
	}()
	wg.Wait()
	<-done

	snaps := col.Gather()
	byName := map[string]MetricSnapshot{}
	for _, s := range snaps {
		byName[s.Name] = s
	}
	if got := byName["train_steps_total"].Value; got != ranks*steps {
		t.Fatalf("train_steps_total = %g, want %d", got, ranks*steps)
	}
	if got := byName["train_step_ops"].Hist.Total; got != ranks*steps {
		t.Fatalf("histogram total = %d, want %d", got, ranks*steps)
	}
	if got := len(col.Timeline().Events); got != ranks*steps {
		t.Fatalf("%d spans, want %d", got, ranks*steps)
	}
}

// TestSharedInstrumentConcurrency hammers a single counter, gauge,
// and histogram from many goroutines — the degenerate sharing case.
func TestSharedInstrumentConcurrency(t *testing.T) {
	r := NewRegistry("shared")
	c := r.Counter("hits_total")
	g := r.Gauge("level_ratio")
	h := r.Histogram("obs_ops", []float64{10, 100})
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				g.Set(float64(i))
				h.Observe(float64(i))
			}
		}()
	}
	wg.Wait()
	if c.Value() != 16000 {
		t.Fatalf("counter = %g, want 16000", c.Value())
	}
	if _, _, total := h.Snapshot(); total != 16000 {
		t.Fatalf("histogram total = %d", total)
	}
}
