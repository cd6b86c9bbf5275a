// Package transport is an in-memory point-to-point message layer with
// MPI-like semantics: ranks, tags, blocking send/receive with per-pair
// FIFO ordering. It carries real payloads — float32, or binary16 words
// in a uint16 (Elem) — between in-process ranks (goroutines), and is
// the substrate for internal/collective: the *functional* half of the
// reproduction, where gradient averaging actually happens. Timing is
// not modelled here; that is internal/netmodel's job.
//
// One generic path serves both wires: Send and RecvReduce are package
// functions over Elem, because methods cannot take type parameters.
// The element type picks the payload field and the free list, and
// nothing else differs.
//
// Payload ownership. Send copies the caller's slice, so the caller may
// reuse it at once. The copy goes into a buffer recycled from the
// (src, dst) mailbox's free list, and is allocated only when the list
// has none large enough. RecvReduce consumes the payload — reduces or
// copies it into the caller's buffer — and hands it back to the list,
// so a steady stream of messages on a pair allocates nothing. No
// payload ever leaves the transport. A duplicated message shares one
// payload, recycled once.
//
// Each mailbox has exactly one sending goroutine (the source rank's)
// and one receiving goroutine (the destination rank's), because a Comm
// is owned by one goroutine. That invariant is what lets a mailbox
// wake its peer through a one-slot semaphore made once: the only
// waiter is the only consumer of its tokens, so a token posted between
// its check and its wait is still there when it waits, and a stale one
// costs one extra pass of the loop.
//
// The layer is chaos-testable: a World accepts a fault Injector
// (drop, duplicate, delay per delivery attempt), a RetryPolicy that
// bounds redelivery of dropped messages, an operation timeout, and a
// per-rank Kill switch that simulates a rank crash. Every blocking
// operation returns a wrapped error — ErrRankFailed, ErrTimeout,
// ErrDeliveryFailed — instead of deadlocking, so the layers above can
// drain and the training loop can run checkpoint-restart recovery.
package transport

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"segscale/internal/telemetry"
	"segscale/internal/timeline"
)

// Elem is a wire element: a float32, or a binary16 word carried in a
// uint16 — the compressed format behind hvd.Compression.fp16, two
// bytes per element on the wire and in every byte counter.
type Elem interface{ float32 | uint16 }

// message is one in-flight payload. seq is the per-(src,dst)-pair
// sequence number: receivers consume the lowest matching seq (FIFO
// within a tag even under injected reordering) and use it to
// deduplicate injected duplicates. Exactly one of data/data16 carries
// the payload; u16 marks which, so a zero-length binary16 message is
// still distinguishable from a zero-length float32 one.
type message struct {
	seq    uint64
	tag    int
	data   []float32
	data16 []uint16
	u16    bool
}

// bytes is the modelled wire size of the payload: 4 bytes per float32
// element, 2 per binary16 word — the whole point of the compressed
// wire format.
func (m message) bytes() int {
	if m.u16 {
		return 2 * len(m.data16)
	}
	return 4 * len(m.data)
}

// kind names a payload's wire for error messages.
func kind(u16 bool) string {
	if u16 {
		return "binary16"
	}
	return "float32"
}

// mailbox is the (src,dst) pair's delivery queue. Unlike a bare
// channel it supports tag-scanned, seq-ordered consumption, injected
// reordering (held messages), and waking blocked peers on rank death.
type mailbox struct {
	mu sync.Mutex
	// q holds visible messages in arrival order.
	q []message
	// held holds delay-faulted messages: invisible until the next
	// enqueue on the pair or until the receiver runs dry (starvation
	// flush), which bounds how long a delay can defer delivery.
	held    []message
	nextSeq uint64
	// free32 and free16 hold the payload buffers RecvReduce has
	// consumed, at most mailboxDepth each; Send refills from them.
	free32 [][]float32
	free16 [][]uint16
	// notify and space are one-slot semaphores (see the package doc):
	// a token on notify says delivery state changed, one on space that
	// queue slots freed up.
	notify chan struct{}
	space  chan struct{}
}

func newMailbox() *mailbox {
	return &mailbox{notify: make(chan struct{}, 1), space: make(chan struct{}, 1)}
}

// signal posts a wake-up token; a token already pending absorbs it.
func signal(sem chan struct{}) {
	select {
	case sem <- struct{}{}:
	default:
	}
}

// flushHeld makes delay-faulted messages visible. Caller holds mu.
func (mb *mailbox) flushHeld() {
	if len(mb.held) == 0 {
		return
	}
	mb.q = append(mb.q, mb.held...)
	mb.held = mb.held[:0]
}

// take removes and returns the lowest-seq message with the given tag,
// along with every duplicate of it. Starved lookups flush held
// messages before giving up. Caller holds mu.
func (mb *mailbox) take(tag int) (message, bool) {
	best := mb.scan(tag)
	if best < 0 && len(mb.held) > 0 {
		mb.flushHeld()
		best = mb.scan(tag)
	}
	if best < 0 {
		return message{}, false
	}
	m := mb.q[best]
	kept := mb.q[:0]
	for _, e := range mb.q {
		if e.seq != m.seq {
			kept = append(kept, e)
		}
	}
	mb.q = kept
	return m, true
}

// scan returns the index of the lowest-seq visible message with the
// given tag, or -1. Caller holds mu.
func (mb *mailbox) scan(tag int) int {
	best := -1
	for i, m := range mb.q {
		if m.tag == tag && (best < 0 || m.seq < mb.q[best].seq) {
			best = i
		}
	}
	return best
}

// fields returns wire T's payload field in m and free list in mb, and
// whether T is the binary16 word. The switch is on a nil pointer and
// every case converts a pointer, so none of it allocates.
func fields[T Elem](m *message, mb *mailbox) (payload *[]T, free *[][]T, u16 bool) {
	switch any((*T)(nil)).(type) {
	case *float32:
		return any(&m.data).(*[]T), any(&mb.free32).(*[][]T), false
	default:
		return any(&m.data16).(*[]T), any(&mb.free16).(*[][]T), true
	}
}

// reuse removes and returns the smallest free buffer that holds n
// elements, resliced to n. When none does it drops the smallest buffer
// and returns nil, so the list never outgrows the pair's traffic in
// flight. Caller holds mu.
func reuse[T Elem](free *[][]T, n int) []T {
	l := *free
	if len(l) == 0 {
		return nil
	}
	best, smallest := -1, 0
	for i, b := range l {
		if cap(b) >= n && (best < 0 || cap(b) < cap(l[best])) {
			best = i
		}
		if cap(b) < cap(l[smallest]) {
			smallest = i
		}
	}
	pick := best
	if best < 0 {
		pick = smallest
	}
	b := l[pick]
	l[pick] = l[len(l)-1]
	l[len(l)-1] = nil
	*free = l[:len(l)-1]
	if best < 0 {
		return nil
	}
	return b[:n]
}

// recycle returns a consumed payload to its free list, unless the list
// is full. Caller holds mu.
func recycle[T Elem](free *[][]T, b []T) {
	if len(*free) < mailboxDepth {
		*free = append(*free, b)
	}
}

// World owns the mailboxes for a fixed set of ranks.
type World struct {
	n int
	// inc is the world incarnation stamped into message-edge IDs
	// ("src>dst#seq.inc"). The training loop's recovery path creates a
	// fresh World per incarnation and labels it via SetIncarnation, so
	// edges from traffic before and after a crash-restart never pair up
	// in trace analysis. Set before traffic starts; zero by default.
	inc int
	// boxes[dst][src] is the queue for src→dst traffic.
	boxes [][]*mailbox

	// Chaos knobs; set before traffic starts (see fault.go).
	inj       Injector
	retry     RetryPolicy
	opTimeout time.Duration

	// mu guards the failure state.
	mu       sync.Mutex
	dead     []bool
	poisoned bool
	// deathCh is closed on the first Kill; every blocked operation
	// selects on it so the whole world drains instead of deadlocking
	// against the dead rank.
	deathCh chan struct{}

	barrierMu  sync.Mutex
	barrierCnt int
	barrierCh  chan struct{}
}

// mailboxDepth bounds in-flight messages per (src,dst) pair. Eager
// buffering this deep lets ring algorithms run without rendezvous.
const mailboxDepth = 64

// NewWorld creates a world with n ranks. A non-positive size is a
// configuration error, reported rather than panicked so callers
// threading user-supplied world sizes can unwind cleanly.
func NewWorld(n int) (*World, error) {
	if n <= 0 {
		return nil, fmt.Errorf("transport: world size %d", n)
	}
	w := &World{
		n:         n,
		retry:     DefaultRetry,
		dead:      make([]bool, n),
		deathCh:   make(chan struct{}),
		barrierCh: make(chan struct{}),
	}
	w.boxes = make([][]*mailbox, n)
	for dst := range w.boxes {
		w.boxes[dst] = make([]*mailbox, n)
		for src := range w.boxes[dst] {
			w.boxes[dst][src] = newMailbox()
		}
	}
	return w, nil
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.n }

// SetIncarnation labels this world with the recovery incarnation its
// traffic belongs to; the label rides every message-edge ID the
// instrumented send/recv paths stamp. Call before traffic starts.
func (w *World) SetIncarnation(inc int) { w.inc = inc }

// Incarnation returns the world's incarnation label.
func (w *World) Incarnation() int { return w.inc }

// Comm returns rank r's endpoint.
func (w *World) Comm(r int) *Comm {
	if r < 0 || r >= w.n {
		panic(fmt.Sprintf("transport: rank %d outside world of %d", r, w.n))
	}
	return &Comm{w: w, rank: r}
}

// kill marks rank r dead and poisons the world: deathCh wakes every
// blocked operation and all subsequent ones fail fast.
func (w *World) kill(r int) {
	w.mu.Lock()
	if !w.dead[r] {
		w.dead[r] = true
		if !w.poisoned {
			w.poisoned = true
			close(w.deathCh)
		}
	}
	w.mu.Unlock()
}

// failure returns the world's terminal error, or nil while healthy.
func (w *World) failure() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.poisoned {
		return nil
	}
	var dead []int
	for r, d := range w.dead {
		if d {
			dead = append(dead, r)
		}
	}
	return fmt.Errorf("world draining after failure of rank(s) %v: %w", dead, ErrRankFailed)
}

// Failure returns the world's terminal error — wrapping ErrRankFailed
// and naming the dead ranks — or nil while every rank is alive. It is
// the exported liveness view the observability plane's /healthz and
// /readyz endpoints report from.
func (w *World) Failure() error { return w.failure() }

// FailedRanks returns the ranks that have died so far.
func (w *World) FailedRanks() []int {
	w.mu.Lock()
	defer w.mu.Unlock()
	var dead []int
	for r, d := range w.dead {
		if d {
			dead = append(dead, r)
		}
	}
	return dead
}

// Comm is one rank's communicator. A Comm is owned by a single
// goroutine; Comms for different ranks may be used concurrently.
type Comm struct {
	w    *World
	rank int

	// probe and the cached instruments below are nil until SetProbe;
	// the nil-safe telemetry methods make every uninstrumented
	// send/receive/Barrier pay exactly one branch per instrument.
	probe     *telemetry.Probe
	sends     *telemetry.Counter
	recvs     *telemetry.Counter
	sentBytes *telemetry.Counter
	recvBytes *telemetry.Counter
	barriers  *telemetry.Counter
	faults    *telemetry.Counter
	retries   *telemetry.Counter
}

// SetProbe attaches per-rank telemetry to this communicator: message
// and byte counters on the send/recv path, a counter plus span per
// barrier, and the chaos counters (injected faults, retries). A nil
// probe detaches.
func (c *Comm) SetProbe(p *telemetry.Probe) {
	c.probe = p
	c.sends = p.Counter("transport_sends_total")
	c.recvs = p.Counter("transport_recvs_total")
	c.sentBytes = p.Counter("transport_sent_bytes")
	c.recvBytes = p.Counter("transport_received_bytes")
	c.barriers = p.Counter("transport_barriers_total")
	c.faults = p.Counter("faults_injected_total")
	c.retries = p.Counter("retries_total")
}

// Probe returns the attached telemetry probe (nil when
// uninstrumented). Layers built on Comm — collective, horovod —
// instrument themselves through it.
func (c *Comm) Probe() *telemetry.Probe { return c.probe }

// Rank returns this endpoint's rank.
func (c *Comm) Rank() int { return c.rank }

// Size returns the world size.
func (c *Comm) Size() int { return c.w.n }

// Kill marks this rank dead — the in-process analogue of a rank
// crash. The world drains: every blocked and subsequent operation on
// any rank returns an ErrRankFailed-wrapped error, which is what lets
// the training loop detect the failure and restart from a checkpoint.
func (c *Comm) Kill() { c.w.kill(c.rank) }

// opTimer returns the per-operation timeout channel (nil = never
// fires) and its stop function.
func (c *Comm) opTimer() (<-chan time.Time, func()) {
	if d := c.w.opTimeout; d > 0 {
		t := time.NewTimer(d)
		return t.C, func() { t.Stop() }
	}
	return nil, func() {}
}

// Send delivers a copy of data to dst with the given tag. It blocks
// only when the pair's mailbox is full (flow control). Injected drops
// are retried under the world's RetryPolicy; exhausting it fails the
// send (and the rank) with ErrDeliveryFailed. The copy lands in a
// buffer recycled from the pair's free list when one is large enough.
func Send[T Elem](c *Comm, dst, tag int, data []T) error {
	if dst == c.rank {
		return fmt.Errorf("transport: rank %d send to self", c.rank)
	}
	if dst < 0 || dst >= c.w.n {
		return fmt.Errorf("transport: send to rank %d outside world of %d", dst, c.w.n)
	}
	if err := c.w.failure(); err != nil {
		return fmt.Errorf("transport: send %d→%d tag %d: %w", c.rank, dst, tag, err)
	}
	mb := c.w.boxes[dst][c.rank]
	m := message{tag: tag}
	payload, free, u16 := fields[T](&m, mb)
	mb.mu.Lock()
	m.seq = mb.nextSeq
	mb.nextSeq++
	buf := reuse(free, len(data))
	mb.mu.Unlock()
	if buf == nil {
		buf = make([]T, len(data))
	}
	copy(buf, data)
	*payload, m.u16 = buf, u16
	return c.send(mb, dst, m)
}

// Send is Send[float32].
func (c *Comm) Send(dst, tag int, data []float32) error { return Send(c, dst, tag, data) }

// send is the payload-agnostic rest of Send: the edge-ID span, the
// injected-drop retry loop, and the flow-controlled enqueue of m, which
// already holds its sequence number and a private payload.
func (c *Comm) send(mb *mailbox, dst int, m message) error {
	tag := m.tag
	// The send span carries the message's edge ID; the matching recv
	// span on the destination rank stamps the identical ID, which is
	// what lets trace analysis pair them into a happens-before edge.
	// Failed sends abandon the span unrecorded: a message that never
	// entered the mailbox must not fabricate causality.
	var sp telemetry.Span
	if c.probe != nil {
		sp = c.probe.EdgeSpan(timeline.PhaseSend, "send",
			timeline.Edge{Src: c.rank, Dst: dst, Seq: m.seq, Inc: c.w.inc}.String())
	}

	fault := FaultNone
	if inj := c.w.inj; inj != nil {
		for attempt := 0; ; attempt++ {
			f := inj.Message(c.rank, dst, tag, attempt, m.seq)
			if f == FaultNone {
				break
			}
			c.faults.Inc()
			if f != FaultDrop {
				fault = f
				break
			}
			if attempt+1 >= c.w.retry.MaxAttempts {
				c.w.kill(c.rank)
				return fmt.Errorf("transport: send %d→%d tag %d seq %d: all %d attempts dropped: %w",
					c.rank, dst, tag, m.seq, attempt+1, ErrDeliveryFailed)
			}
			c.retries.Inc()
			if b := c.w.retry.Backoff; b > 0 {
				time.Sleep(b)
			}
		}
	}

	if err := c.enqueue(mb, m, fault); err != nil {
		return fmt.Errorf("transport: send %d→%d tag %d: %w", c.rank, dst, tag, err)
	}
	c.sends.Inc()
	c.sentBytes.Add(float64(m.bytes()))
	sp.End()
	return nil
}

// enqueue places m into mb under flow control, applying a duplicate
// or delay fault at delivery time.
func (c *Comm) enqueue(mb *mailbox, m message, fault Fault) error {
	timeout, stop := c.opTimer()
	defer stop()
	for {
		mb.mu.Lock()
		if len(mb.q)+len(mb.held) < mailboxDepth {
			switch fault {
			case FaultDelay:
				mb.held = append(mb.held, m)
			case FaultDuplicate:
				mb.q = append(mb.q, m, m)
				mb.flushHeld()
			default:
				mb.q = append(mb.q, m)
				mb.flushHeld()
			}
			// Wake receivers even for held messages: a starved
			// receiver flushes them, so a delay can never deadlock.
			signal(mb.notify)
			mb.mu.Unlock()
			return nil
		}
		mb.mu.Unlock()
		if err := c.w.failure(); err != nil {
			return err
		}
		select {
		case <-mb.space:
		case <-c.w.deathCh:
		case <-timeout:
			c.w.kill(c.rank)
			return fmt.Errorf("waiting for mailbox space: %w", ErrTimeout)
		}
	}
}

// RecvReduce blocks until a message from src with the given tag arrives
// and consumes its payload: add reduces it into dst, or a nil add
// copies it there, and the payload goes back to the pair's free list
// for a later Send to reuse. A copy must match dst's length; add checks
// lengths itself and its error is returned as is. add should be a
// static function, not a closure, so that calling through it allocates
// nothing.
//
// Messages from src with other tags stay queued for later matching
// receives; within a tag, messages are delivered in send order (lowest
// sequence number first) even when the injector reorders arrival. A
// message of the other wire is a protocol bug between the layered
// collectives — distinct tag bases keep the kinds apart — and is
// reported as an error.
func RecvReduce[T Elem](c *Comm, src, tag int, dst []T, add func(dst, src []T) error) error {
	m, mb, err := c.recv(src, tag)
	if err != nil {
		return err
	}
	payload, free, u16 := fields[T](&m, mb)
	if m.u16 != u16 {
		return fmt.Errorf("transport: recv %d←%d tag %d: %s payload on a %s receive",
			c.rank, src, tag, kind(m.u16), kind(u16))
	}
	got := *payload
	switch {
	case add != nil:
		err = add(dst, got)
	case len(got) != len(dst):
		err = fmt.Errorf("transport: recv %d←%d tag %d: length %d into buffer %d",
			c.rank, src, tag, len(got), len(dst))
	default:
		copy(dst, got)
	}
	mb.mu.Lock()
	recycle(free, got)
	mb.mu.Unlock()
	return err
}

// RecvInto is RecvReduce[float32] with a nil add: it copies the payload
// into dst, which must match the message length.
func (c *Comm) RecvInto(src, tag int, dst []float32) error {
	return RecvReduce(c, src, tag, dst, nil)
}

// recv is the payload-agnostic receive path: tag-scanned, seq-ordered
// consumption with the edge-ID span and drain semantics. It returns
// the message and the mailbox it came from.
func (c *Comm) recv(src, tag int) (message, *mailbox, error) {
	if src == c.rank {
		return message{}, nil, fmt.Errorf("transport: rank %d recv from self", c.rank)
	}
	if src < 0 || src >= c.w.n {
		return message{}, nil, fmt.Errorf("transport: recv from rank %d outside world of %d", src, c.w.n)
	}
	mb := c.w.boxes[c.rank][src]
	// The recv span's edge ID is known only once a message is taken
	// (the seq travels with the message), so it is stamped just before
	// End. Failed recvs abandon the span: no message, no edge.
	sp := c.probe.Span(timeline.PhaseRecv, "recv")
	timeout, stop := c.opTimer()
	defer stop()
	for {
		mb.mu.Lock()
		if m, ok := mb.take(tag); ok {
			signal(mb.space)
			mb.mu.Unlock()
			c.recvs.Inc()
			c.recvBytes.Add(float64(m.bytes()))
			if c.probe != nil {
				sp.SetEdge(timeline.Edge{Src: src, Dst: c.rank, Seq: m.seq, Inc: c.w.inc}.String())
				sp.End()
			}
			return m, mb, nil
		}
		mb.mu.Unlock()
		// Queued messages stay drainable above; only a dry queue in a
		// poisoned world fails.
		if err := c.w.failure(); err != nil {
			return message{}, nil, fmt.Errorf("transport: recv %d←%d tag %d: %w", c.rank, src, tag, err)
		}
		select {
		case <-mb.notify:
		case <-c.w.deathCh:
		case <-timeout:
			c.w.kill(c.rank)
			return message{}, nil, fmt.Errorf("transport: recv %d←%d tag %d: %w", c.rank, src, tag, ErrTimeout)
		}
	}
}

// Barrier blocks until all ranks in the world have called it, or
// until a rank dies (every waiter then returns ErrRankFailed — drain
// semantics, even if the barrier happened to complete concurrently).
func (c *Comm) Barrier() error {
	c.barriers.Inc()
	sp := c.probe.Span(timeline.PhaseBarrier, "barrier")
	defer sp.End()
	w := c.w
	if err := w.failure(); err != nil {
		return fmt.Errorf("transport: barrier rank %d: %w", c.rank, err)
	}
	w.barrierMu.Lock()
	w.barrierCnt++
	if w.barrierCnt == w.n {
		// The next generation's channel is made before this one is
		// closed, so it is never allocated after a waiter has left.
		w.barrierCnt = 0
		done := w.barrierCh
		w.barrierCh = make(chan struct{})
		close(done)
		w.barrierMu.Unlock()
		return nil
	}
	ch := w.barrierCh
	w.barrierMu.Unlock()
	timeout, stop := c.opTimer()
	defer stop()
	select {
	case <-ch:
		return nil
	case <-w.deathCh:
		return fmt.Errorf("transport: barrier rank %d: %w", c.rank, w.failure())
	case <-timeout:
		w.kill(c.rank)
		return fmt.Errorf("transport: barrier rank %d: %w", c.rank, ErrTimeout)
	}
}

// Run spawns fn on every rank of this world and waits for all to
// return. Rank errors are aggregated (wrapped with the rank) into the
// returned error; any rank panic is re-raised on the caller. Configure
// chaos (SetInjector, SetOpTimeout) before calling it.
func (w *World) Run(fn func(c *Comm) error) error {
	var wg sync.WaitGroup
	panics := make(chan any, w.n)
	errs := make([]error, w.n)
	for r := 0; r < w.n; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					panics <- p
				}
			}()
			errs[rank] = fn(w.Comm(rank))
		}(r)
	}
	wg.Wait()
	select {
	case p := <-panics:
		panic(p)
	default:
	}
	var agg []error
	for r, err := range errs {
		if err != nil {
			agg = append(agg, fmt.Errorf("rank %d: %w", r, err))
		}
	}
	return errors.Join(agg...)
}
