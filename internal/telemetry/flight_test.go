package telemetry

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"segscale/internal/timeline"
)

func TestFlightRecorderWraparound(t *testing.T) {
	f := NewFlightRecorder(4)
	for i := 0; i < 10; i++ {
		f.Record(timeline.Event{Lane: "r0", Phase: "P", Name: fmt.Sprintf("e%d", i),
			Start: float64(i), End: float64(i) + 0.5})
	}
	if got := f.Total(); got != 10 {
		t.Fatalf("Total() = %d, want 10", got)
	}
	if got := f.Len(); got != 4 {
		t.Fatalf("Len() = %d, want 4", got)
	}
	snap := f.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("Snapshot() has %d events, want 4", len(snap))
	}
	for i, ev := range snap {
		want := fmt.Sprintf("e%d", 6+i) // only the newest 4 survive, oldest first
		if ev.Name != want {
			t.Errorf("snap[%d].Name = %q, want %q", i, ev.Name, want)
		}
	}
}

func TestFlightRecorderPartialFill(t *testing.T) {
	f := NewFlightRecorder(8)
	f.Record(timeline.Event{Name: "a", Start: 1, End: 2})
	f.Record(timeline.Event{Name: "b", Start: 3, End: 2}) // end<start clamps
	snap := f.Snapshot()
	if len(snap) != 2 || snap[0].Name != "a" || snap[1].Name != "b" {
		t.Fatalf("Snapshot() = %+v, want [a b]", snap)
	}
	if snap[1].End != snap[1].Start {
		t.Fatalf("end<start not clamped: %+v", snap[1])
	}
}

func TestFlightRecorderNilIsNoOp(t *testing.T) {
	var f *FlightRecorder
	f.Record(timeline.Event{Name: "x"})
	if f.Snapshot() != nil || f.Len() != 0 || f.Cap() != 0 || f.Total() != 0 {
		t.Fatal("nil FlightRecorder is not a no-op")
	}
}

// TestFlightThroughCollector checks the full plumbing: once
// EnableFlight is on, spans ended and marks recorded through any
// probe — attached before or after — appear in the ring, and the
// dump parses as a Chrome trace.
func TestFlightThroughCollector(t *testing.T) {
	col := NewCollector()
	before := col.NewProbe("rank0", NewStepClock())
	f := col.EnableFlight(16)
	if col.Flight() != f {
		t.Fatal("Flight() does not return the enabled recorder")
	}
	if again := col.EnableFlight(99); again != f {
		t.Fatal("EnableFlight is not idempotent")
	}
	after := col.NewProbe("rank1", NewStepClock())

	before.Span(timeline.PhaseStep, "s0").End()
	after.Span(timeline.PhaseStep, "s1").End()
	after.Mark("RECOVERY", "restart")

	snap := f.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("flight ring has %d events, want 3: %+v", len(snap), snap)
	}
	if snap[2].Phase != "RECOVERY" || snap[2].Start != snap[2].End {
		t.Fatalf("Mark not recorded as instantaneous event: %+v", snap[2])
	}

	var buf bytes.Buffer
	if err := f.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	rec, err := timeline.ReadChromeTrace(&buf)
	if err != nil {
		t.Fatalf("flight dump is not a readable Chrome trace: %v", err)
	}
	if len(rec.Events) != 3 {
		t.Fatalf("round-tripped trace has %d events, want 3", len(rec.Events))
	}
}

// TestFlightRecorderConcurrent hammers one ring from many writer
// goroutines with concurrent snapshots — the scenario the HTTP
// /debug/flight endpoint creates during a live run. Run under -race
// (the CI race matrix includes this package).
func TestFlightRecorderConcurrent(t *testing.T) {
	const writers, perWriter = 8, 500
	f := NewFlightRecorder(64)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lane := fmt.Sprintf("rank%d", w)
			for i := 0; i < perWriter; i++ {
				f.Record(timeline.Event{Lane: lane, Phase: "P", Name: "e",
					Start: float64(i), End: float64(i + 1)})
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			if got := len(f.Snapshot()); got > f.Cap() {
				t.Errorf("snapshot longer than capacity: %d > %d", got, f.Cap())
				return
			}
		}
	}()
	wg.Wait()
	<-done
	if got := f.Total(); got != writers*perWriter {
		t.Fatalf("Total() = %d, want %d", got, writers*perWriter)
	}
	if got := f.Len(); got != f.Cap() {
		t.Fatalf("Len() = %d, want full ring %d", got, f.Cap())
	}
}
