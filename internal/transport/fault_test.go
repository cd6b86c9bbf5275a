package transport

import (
	"errors"
	"testing"
	"time"

	"segscale/internal/telemetry"
)

// injectorFunc adapts a function to the Injector interface for
// scripted fault scenarios.
type injectorFunc func(src, dst, tag, attempt int, seq uint64) Fault

func (f injectorFunc) Message(src, dst, tag, attempt int, seq uint64) Fault {
	return f(src, dst, tag, attempt, seq)
}

func TestFaultString(t *testing.T) {
	cases := map[Fault]string{
		FaultNone: "none", FaultDrop: "drop", FaultDuplicate: "duplicate",
		FaultDelay: "delay", Fault(99): "unknown",
	}
	for f, want := range cases {
		if got := f.String(); got != want {
			t.Errorf("Fault(%d).String() = %q, want %q", int(f), got, want)
		}
	}
}

// TestDropIsRetried drops the first two attempts of one message; the
// retry loop must still deliver it and count the faults and retries.
func TestDropIsRetried(t *testing.T) {
	w := mustWorld(t, 2)
	w.SetInjector(injectorFunc(func(src, dst, tag, attempt int, seq uint64) Fault {
		if seq == 0 && attempt < 2 {
			return FaultDrop
		}
		return FaultNone
	}))
	probe := telemetry.NewProbe("rank0", nil)
	c0 := w.Comm(0)
	c0.SetProbe(probe)
	go func() {
		if err := c0.Send(1, 0, []float32{42}); err != nil {
			t.Errorf("send: %v", err)
		}
	}()
	got := recvOK(t, w.Comm(1), 0, 0)
	if got[0] != 42 {
		t.Fatalf("got %v", got)
	}
	if v := probe.Counter("faults_injected_total").Value(); v != 2 {
		t.Errorf("faults_injected_total = %v, want 2", v)
	}
	if v := probe.Counter("retries_total").Value(); v != 2 {
		t.Errorf("retries_total = %v, want 2", v)
	}
}

// TestDropExhaustsRetries drops every attempt: the send must fail with
// ErrDeliveryFailed and the rank must die, poisoning the world.
func TestDropExhaustsRetries(t *testing.T) {
	w := mustWorld(t, 2)
	w.SetRetryPolicy(RetryPolicy{MaxAttempts: 3})
	w.SetInjector(injectorFunc(func(src, dst, tag, attempt int, seq uint64) Fault {
		return FaultDrop
	}))
	err := w.Comm(0).Send(1, 0, []float32{1})
	if !errors.Is(err, ErrDeliveryFailed) {
		t.Fatalf("send error = %v, want ErrDeliveryFailed", err)
	}
	if err := w.Comm(1).RecvInto(0, 0, make([]float32, 1)); !errors.Is(err, ErrRankFailed) {
		t.Fatalf("recv after sender death = %v, want ErrRankFailed", err)
	}
	if got := w.FailedRanks(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("FailedRanks = %v, want [0]", got)
	}
}

// TestSetRetryPolicyIgnoresZeroAttempts keeps the default when handed
// a policy that could never deliver anything.
func TestSetRetryPolicyIgnoresZeroAttempts(t *testing.T) {
	w := mustWorld(t, 2)
	w.SetRetryPolicy(RetryPolicy{MaxAttempts: 0})
	if w.retry.MaxAttempts != DefaultRetry.MaxAttempts {
		t.Fatalf("retry = %+v, want default", w.retry)
	}
}

// TestDuplicateIsDeduplicated injects a duplicate; the receiver must
// see the payload exactly once and the next message must still match.
func TestDuplicateIsDeduplicated(t *testing.T) {
	w := mustWorld(t, 2)
	w.SetInjector(injectorFunc(func(src, dst, tag, attempt int, seq uint64) Fault {
		if seq == 0 {
			return FaultDuplicate
		}
		return FaultNone
	}))
	c0, c1 := w.Comm(0), w.Comm(1)
	must(t, c0.Send(1, 7, []float32{1}))
	must(t, c0.Send(1, 7, []float32{2}))
	if got := recvOK(t, c1, 0, 7); got[0] != 1 {
		t.Fatalf("first recv got %v", got)
	}
	if got := recvOK(t, c1, 0, 7); got[0] != 2 {
		t.Fatalf("second recv got %v (duplicate not removed)", got)
	}
}

// TestDelayPreservesTagOrder delays the first of two same-tag
// messages; sequence-ordered receive must still deliver them in send
// order.
func TestDelayPreservesTagOrder(t *testing.T) {
	w := mustWorld(t, 2)
	w.SetInjector(injectorFunc(func(src, dst, tag, attempt int, seq uint64) Fault {
		if seq == 0 {
			return FaultDelay
		}
		return FaultNone
	}))
	c0, c1 := w.Comm(0), w.Comm(1)
	must(t, c0.Send(1, 3, []float32{10})) // held back
	must(t, c0.Send(1, 3, []float32{20})) // flushes the held message behind it
	if got := recvOK(t, c1, 0, 3); got[0] != 10 {
		t.Fatalf("first recv got %v, want send order despite delay", got)
	}
	if got := recvOK(t, c1, 0, 3); got[0] != 20 {
		t.Fatalf("second recv got %v", got)
	}
}

// TestDelayedMessageFlushedOnStarvation delays the only message on
// the pair; the starving receiver must flush it rather than block.
func TestDelayedMessageFlushedOnStarvation(t *testing.T) {
	w := mustWorld(t, 2)
	w.SetInjector(injectorFunc(func(src, dst, tag, attempt int, seq uint64) Fault {
		return FaultDelay
	}))
	must(t, w.Comm(0).Send(1, 0, []float32{5}))
	if got := recvOK(t, w.Comm(1), 0, 0); got[0] != 5 {
		t.Fatalf("got %v", got)
	}
}

// TestKillDrainsBlockedRanks kills a rank while others are blocked in
// a receive and Barrier; all must wake with ErrRankFailed instead of
// deadlocking.
func TestKillDrainsBlockedRanks(t *testing.T) {
	w := mustWorld(t, 3)
	errs := make(chan error, 2)
	go func() {
		errs <- w.Comm(1).RecvInto(0, 0, make([]float32, 1))
	}()
	go func() {
		errs <- w.Comm(2).Barrier()
	}()
	// Give both goroutines a chance to block, then crash rank 0.
	time.Sleep(10 * time.Millisecond)
	w.Comm(0).Kill()
	for i := 0; i < 2; i++ {
		if err := <-errs; !errors.Is(err, ErrRankFailed) {
			t.Errorf("drained op error = %v, want ErrRankFailed", err)
		}
	}
	if err := w.Comm(1).Send(2, 0, nil); !errors.Is(err, ErrRankFailed) {
		t.Errorf("send after poison = %v, want ErrRankFailed", err)
	}
}

// TestOpTimeoutOnRecv bounds a receive that would otherwise block
// forever.
func TestOpTimeoutOnRecv(t *testing.T) {
	w := mustWorld(t, 2)
	w.SetOpTimeout(20 * time.Millisecond)
	if err := w.Comm(1).RecvInto(0, 0, make([]float32, 1)); !errors.Is(err, ErrTimeout) {
		t.Fatalf("recv error = %v, want ErrTimeout", err)
	}
	// The timed-out rank is dead; the world drains.
	if err := w.Comm(0).Barrier(); !errors.Is(err, ErrRankFailed) {
		t.Fatalf("barrier after timeout = %v, want ErrRankFailed", err)
	}
}

// TestOpTimeoutOnBarrier bounds a barrier missing one participant.
func TestOpTimeoutOnBarrier(t *testing.T) {
	w := mustWorld(t, 2)
	w.SetOpTimeout(20 * time.Millisecond)
	if err := w.Comm(0).Barrier(); !errors.Is(err, ErrTimeout) {
		t.Fatalf("barrier error = %v, want ErrTimeout", err)
	}
}

// TestOpTimeoutOnFullMailbox bounds a send blocked on flow control.
func TestOpTimeoutOnFullMailbox(t *testing.T) {
	w := mustWorld(t, 2)
	w.SetOpTimeout(20 * time.Millisecond)
	c := w.Comm(0)
	var err error
	for i := 0; i <= mailboxDepth; i++ {
		if err = c.Send(1, 0, []float32{1}); err != nil {
			break
		}
	}
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("overfull send error = %v, want ErrTimeout", err)
	}
}

// TestDrainedRecvStillDeliversQueued checks drain semantics: messages
// already queued before the failure stay receivable so survivors can
// finish in-flight work deterministically.
func TestDrainedRecvStillDeliversQueued(t *testing.T) {
	w := mustWorld(t, 3)
	must(t, w.Comm(0).Send(1, 0, []float32{7}))
	w.Comm(2).Kill()
	if got := recvOK(t, w.Comm(1), 0, 0); got[0] != 7 {
		t.Fatalf("queued message after poison got %v", got)
	}
	// A second recv with nothing queued fails fast.
	if err := w.Comm(1).RecvInto(0, 0, make([]float32, 1)); !errors.Is(err, ErrRankFailed) {
		t.Fatalf("dry recv after poison = %v, want ErrRankFailed", err)
	}
}

// TestChaosTrafficUnderRace hammers a faulty world from all ranks so
// the mailbox locking, retry loop, and dedup run under -race.
func TestChaosTrafficUnderRace(t *testing.T) {
	const n = 4
	const iters = 50
	w := mustWorld(t, n)
	w.SetRetryPolicy(RetryPolicy{MaxAttempts: 100})
	w.SetInjector(injectorFunc(func(src, dst, tag, attempt int, seq uint64) Fault {
		// Deterministic mix keyed off the message identity.
		switch (seq*7 + uint64(src)*13 + uint64(tag)*3 + uint64(attempt)) % 11 {
		case 0:
			return FaultDrop
		case 1:
			return FaultDuplicate
		case 2:
			return FaultDelay
		}
		return FaultNone
	}))
	err := w.Run(func(c *Comm) error {
		next := (c.Rank() + 1) % n
		prev := (c.Rank() - 1 + n) % n
		for it := 0; it < iters; it++ {
			if err := c.Send(next, it, []float32{float32(c.Rank()*1000 + it)}); err != nil {
				return err
			}
			got := make([]float32, 1)
			if err := c.RecvInto(prev, it, got); err != nil {
				return err
			}
			if want := float32(prev*1000 + it); got[0] != want {
				t.Errorf("rank %d iter %d got %v, want %v", c.Rank(), it, got[0], want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}
