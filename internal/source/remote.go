// Package source is the relay wire: the path that lets a prober on one
// box stream its probe-lifecycle events into an online.Engine on
// another.
//
// A producing process (a prober, a sim, a fleet agent) wraps its event
// stream in a Sender (Dial, DialAuto; Uplink accounts it on a pipeline
// chain), which frames events onto a TCP connection in the otrace wire
// format. The consuming process — typically cmd/netdyn-relay — accepts
// connections with Serve and reads each one, a remote source, into the
// shared sink (an online.Bus, a trace file), with per-source counters
// and a status table. Events carry their Job/Index tags inside the
// frames, so no handshake is needed: the relay's analyzers key on
// ev.Job exactly as a local engine would.
package source

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"netprobe/internal/netdyn"
	"netprobe/internal/obs"
	"netprobe/internal/otrace"
)

// Sender streams events over an io.Writer as binary frames. It
// implements otrace.Sink. Emit appends the event's frame to a pending
// buffer under a mutex and returns without a syscall; one flush
// goroutine writes everything pending in a single Write. The flusher
// starts when a frame lands in an idle Sender and exits once nothing is
// pending, so a lone event leaves as soon as the flusher runs, a burst
// leaves in one write, and an idle Sender holds no goroutine. Pending
// bytes are bounded by pendingMax: at the bound Emit waits for the
// write in flight, so a stalled peer stalls the producer instead of
// growing memory. Producers whose pacing must not wait on the network
// (the real prober) should wrap a Sender in otrace.NewBounded.
//
// Write errors are sticky by default — after the first failure Emit
// becomes a no-op and Close reports the error — so a dead relay
// degrades a run to a local-only one instead of failing it. DialAuto
// opts into recovery instead: a broken stream is re-dialed in the
// background with jittered exponential backoff (the netdyn.Supervise
// shape), and events flow again on the new connection, which opens
// with its own magic header. Frames leave in Emit order, and no frame
// crosses from one stream to the next.
//
// Every Emit lands in exactly one of two accounts, Sent or Dropped —
// the conservation property the pipeline ledger audits
// (internal/pipestat), which holds across any number of reconnections.
// A frame counts as Sent when its batch is handed to Write, so Sent
// never lags bytes the peer can read. If the write fails or is short,
// the frames that did not fully leave move from Sent to Dropped, as do
// the frames still pending for that stream; an Emit on a dead, closed
// or redialing stream is Dropped at once. The stream therefore holds
// exactly Sent complete frames. Heartbeats (StartHeartbeats) share the
// buffer but are plumbing, not events, and count in neither.
type Sender struct {
	mu     sync.Mutex
	wake   sync.Cond // on mu: pending gained room, or a flush ended
	w      io.Writer // the current stream; nil while redialing
	c      io.Closer
	err    error
	closed bool
	hbStop chan struct{}

	// pending holds the frames not yet handed to w, in Emit order, and
	// ends the end offset in pending of each counted event frame. The
	// flusher swaps them with batch/batchEnds for its write, so steady
	// state reuses both pairs.
	pending, batch  []byte
	ends, batchEnds []int
	flushing        bool   // a flusher goroutine owns the write side
	flushFn         func() // s.flush, bound once so starting it does not allocate

	// Auto-redial state (nil redial = classic sticky-error Sender).
	redial    *Redial
	redialing bool
	stopc     chan struct{}
	redials   atomic.Int64

	sent    atomic.Int64
	dropped atomic.Int64
}

// pendingMax bounds the bytes a Sender holds for its flusher (plus at
// most one frame): about four thousand typical events.
const pendingMax = 256 << 10

func newSender() *Sender {
	s := &Sender{}
	s.wake.L = &s.mu
	s.flushFn = s.flush
	return s
}

// NewSender starts a framed event stream on w. If w is also an
// io.Closer, Close closes it.
func NewSender(w io.Writer) *Sender {
	s := newSender()
	s.attach(w)
	return s
}

// Dial connects to a relay at addr (TCP) and returns a Sender owning
// the connection.
func Dial(addr string) (*Sender, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("source: dial relay: %w", err)
	}
	return NewSender(conn), nil
}

// Redial configures a Sender's opt-in automatic reconnection.
type Redial struct {
	// Dial opens a replacement stream. If the returned writer is also an
	// io.Closer the Sender closes it on the next failure or on Close.
	// DialAuto defaults it to a TCP dial of the configured address.
	Dial func() (io.Writer, error)
	// Backoff is the first retry delay and BackoffMax its cap; each
	// failed attempt doubles the delay (±50% deterministic jitter via
	// netdyn.RetryJitter — the Supervise backoff shape). Defaults:
	// 100ms and 5s.
	Backoff    time.Duration
	BackoffMax time.Duration
	// Seed decorrelates concurrent senders' retry storms while keeping
	// each sender's schedule replayable.
	Seed int64
	// Logf, if non-nil, logs disconnects and reconnects.
	Logf func(format string, args ...any)
}

// DialAuto returns a Sender that streams to addr and, unlike Dial,
// recovers from broken connections: a write failure (or a failed
// initial dial) drops the events that hit it and starts a background
// reconnect loop, and once the redial lands events flow on the new
// stream. The Sent/Dropped conservation property is unchanged — events
// emitted while disconnected are dropped, never blocked or buffered —
// so a prober survives a relay restart at the cost of the events that
// arrived during the outage (the relay's ledger stays balanced on both
// sides of the gap). DialAuto never fails: when the first dial is
// refused it returns a disconnected Sender that keeps trying, which is
// what lets fleet agents start before their relay.
func DialAuto(addr string, r Redial) *Sender {
	if r.Dial == nil {
		r.Dial = func() (io.Writer, error) {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			return conn, nil
		}
	}
	if r.Backoff <= 0 {
		r.Backoff = 100 * time.Millisecond
	}
	if r.BackoffMax <= 0 {
		r.BackoffMax = 5 * time.Second
	}
	if r.Logf == nil {
		r.Logf = func(string, ...any) {}
	}
	s := newSender()
	s.redial, s.stopc = &r, make(chan struct{})
	if w, err := r.Dial(); err == nil {
		s.attach(w)
	} else {
		s.err = err
		s.redialing = true
		go s.reconnectLoop()
	}
	return s
}

// attach points the Sender at a fresh stream, whose first write will
// carry the magic header. Callers either hold s.mu or own the Sender
// exclusively (constructor).
func (s *Sender) attach(w io.Writer) {
	s.w = w
	s.pending = otrace.AppendStreamHeader(s.pending[:0])
	if c, ok := w.(io.Closer); ok {
		s.c = c
	} else {
		s.c = nil
	}
	s.err = nil
}

// Redials reports how many reconnections have succeeded.
func (s *Sender) Redials() int64 { return s.redials.Load() }

// fail records a stream error. With redial configured it also retires
// the dead stream and starts (at most one) background reconnect loop;
// otherwise the error is sticky, as ever. Callers hold s.mu and have
// already dropped the stream's pending frames.
func (s *Sender) fail(err error) {
	s.err = err
	if s.redial == nil || s.closed || s.redialing {
		return
	}
	if s.c != nil {
		s.c.Close() //nolint:errcheck // stream already broken
		s.c = nil
	}
	s.w = nil
	s.redialing = true
	s.redial.Logf("source: stream broken, redialing: %v", err)
	go s.reconnectLoop()
}

// reconnectLoop re-dials until it lands a stream or the Sender closes.
func (s *Sender) reconnectLoop() {
	backoff := s.redial.Backoff
	for attempt := 0; ; attempt++ {
		w, err := s.redial.Dial()
		if err == nil {
			s.mu.Lock()
			if s.closed {
				s.mu.Unlock()
				if c, ok := w.(io.Closer); ok {
					c.Close() //nolint:errcheck // discarding unused stream
				}
				return
			}
			s.attach(w)
			s.redialing = false
			s.mu.Unlock()
			s.redials.Add(1)
			s.redial.Logf("source: reconnected after %d attempts", attempt+1)
			return
		}
		d := time.Duration(float64(backoff) * netdyn.RetryJitter(s.redial.Seed, 0, attempt))
		if backoff *= 2; backoff > s.redial.BackoffMax {
			backoff = s.redial.BackoffMax
		}
		t := time.NewTimer(d)
		select {
		case <-s.stopc:
			t.Stop()
			return
		case <-t.C:
		}
	}
}

// Emit implements otrace.Sink.
func (s *Sender) Emit(ev otrace.Event) {
	s.mu.Lock()
	if !s.enqueueLocked(ev, true) {
		s.dropped.Add(1)
	}
	s.mu.Unlock()
}

// enqueueLocked appends ev's frame to pending — waiting while pending is
// at its bound — and starts a flusher if none is running. It reports
// false when the stream cannot take the frame: closed, failed,
// redialing, or an event over otrace.MaxFrame. counted marks an event
// frame (Sent/Dropped) as opposed to a heartbeat. Callers hold s.mu.
func (s *Sender) enqueueLocked(ev otrace.Event, counted bool) bool {
	for s.writableLocked() && len(s.pending) >= pendingMax {
		s.wake.Wait()
	}
	if !s.writableLocked() {
		return false
	}
	buf, err := otrace.AppendFrame(s.pending, ev)
	if err != nil {
		return false
	}
	s.pending = buf
	if counted {
		s.ends = append(s.ends, len(buf))
	}
	if !s.flushing {
		s.flushing = true
		go s.flushFn()
	}
	return true
}

func (s *Sender) writableLocked() bool {
	return s.w != nil && s.err == nil && !s.closed
}

// flush is the flusher goroutine: it writes pending batches until none
// is left or the stream fails, then exits.
func (s *Sender) flush() {
	s.mu.Lock()
	s.drainLocked()
	s.flushing = false
	s.wake.Broadcast()
	s.mu.Unlock()
}

// drainLocked writes pending to the stream, one batch per Write, until
// nothing is pending or the stream fails. The caller holds s.mu and
// owns the write side (s.flushing); the lock is released during each
// Write so Emit keeps appending to the next batch meanwhile.
func (s *Sender) drainLocked() {
	for len(s.pending) > 0 && s.w != nil && s.err == nil {
		w, batch, ends := s.w, s.pending, s.ends
		s.pending, s.ends = s.batch[:0], s.batchEnds[:0]
		// Count before the write: once Write starts, the peer may read
		// these frames before Write returns.
		s.sent.Add(int64(len(ends)))
		s.wake.Broadcast() // pending has room again
		s.mu.Unlock()
		n, err := w.Write(batch)
		s.mu.Lock()
		s.batch, s.batchEnds = batch, ends
		if err == nil && n < len(batch) {
			err = io.ErrShortWrite
		}
		if err == nil {
			continue
		}
		// Frames that did not fully leave, and every frame still pending
		// for this dead stream, are dropped: the receiver's FrameReader
		// discards a truncated trailing frame, so the stream holds
		// exactly Sent complete frames.
		lost := int64(len(ends) - sort.SearchInts(ends, n+1))
		s.sent.Add(-lost)
		s.dropped.Add(lost + int64(len(s.ends)))
		s.pending, s.ends = s.pending[:0], s.ends[:0]
		s.fail(fmt.Errorf("source: write frames: %w", err))
	}
}

// Sent reports how many events have been handed to the stream in
// complete frames (see Sender for exactly when they are counted).
func (s *Sender) Sent() int64 { return s.sent.Load() }

// Dropped reports how many Emit calls were discarded because the
// stream was closed or had failed. Sent+Dropped equals the number of
// Emit calls, exactly, whenever nothing is pending — in particular once
// Close has returned, including for calls that raced it.
func (s *Sender) Dropped() int64 { return s.dropped.Load() }

// StartHeartbeats emits a KindHeartbeat frame every interval until the
// Sender is closed, carrying the sender's wall clock so the relay can
// track this source's liveness and clock skew even while no probe
// events flow. Heartbeats bypass the Sent/Dropped accounts (they are
// not pipeline events and the relay never forwards them). Calling it
// again, or on a closed Sender, is a no-op.
func (s *Sender) StartHeartbeats(interval time.Duration) {
	if interval <= 0 {
		return
	}
	s.mu.Lock()
	if s.closed || s.hbStop != nil {
		s.mu.Unlock()
		return
	}
	stop := make(chan struct{})
	s.hbStop = stop
	s.mu.Unlock()
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				s.mu.Lock()
				s.enqueueLocked(otrace.Event{Ev: otrace.KindHeartbeat, Seq: -1,
					SentNs: time.Now().UnixNano()}, false)
				s.mu.Unlock()
			}
		}
	}()
}

// Err reports the sticky stream error, nil while the stream is
// healthy.
func (s *Sender) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Close stops the heartbeats and any reconnect loop, writes whatever is
// pending, closes the underlying connection if the Sender owns one, and
// returns the first error encountered. Emits after Close count as
// dropped; once Close returns, Sent+Dropped covers every Emit that
// returned before it.
func (s *Sender) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.hbStop != nil {
		close(s.hbStop)
		s.hbStop = nil
	}
	if s.closed {
		return s.err
	}
	s.closed = true
	if s.stopc != nil {
		close(s.stopc)
	}
	s.wake.Broadcast() // Emits waiting for room give up
	for s.flushing {
		s.wake.Wait()
	}
	// No flusher ran if nothing but the magic header is pending.
	s.flushing = true
	s.drainLocked()
	s.flushing = false
	if s.c != nil {
		if err := s.c.Close(); err != nil && s.err == nil {
			s.err = err
		}
		s.c = nil
	}
	return s.err
}

// readStream delivers one connection's framed events to sink in
// arrival order until the peer closes the connection cleanly (nil),
// the stream dies mid-frame (otrace.ErrTruncated), or ctx is cancelled.
// Cancellation unblocks the pending read by forcing the connection's
// read deadline, and its error is reported in place of the read error
// it provoked. readStream closes conn when it returns.
func readStream(ctx context.Context, conn net.Conn, label string, sink otrace.Sink) error {
	defer conn.Close() //nolint:errcheck // read side
	// Closing is too blunt to unblock a Read stuck on a silent peer (we
	// want the deadline error path), so force an already-expired read
	// deadline.
	stop := context.AfterFunc(ctx, func() {
		conn.SetReadDeadline(pastDeadline) //nolint:errcheck // best effort
	})
	defer stop()
	fail := func(err error) error {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return fmt.Errorf("source: remote %s: %w", label, err)
	}
	fr, err := otrace.NewFrameReader(conn)
	if err != nil {
		return fail(err)
	}
	for {
		ev, err := fr.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fail(err)
		}
		sink.Emit(ev)
	}
}

// pastDeadline is any time guaranteed to be in the past, expiring
// reads immediately.
var pastDeadline = time.Unix(1, 0)

// ServerConfig configures Serve.
type ServerConfig struct {
	// Sink receives every connection's events. It must be safe for
	// concurrent Emit (each connection emits from its own goroutine);
	// an online.Bus or otrace.Writer qualifies.
	Sink otrace.Sink
	// Lossy decouples each connection from the sink with a bounded
	// queue: overruns are dropped and counted (source.dropped) instead
	// of backpressuring the peer. The default (false) emits
	// synchronously, letting TCP flow control pace the peer — the
	// lossless mode bulk transfers need for byte-identical relays; live
	// probers are already decoupled on their own side (they wrap their
	// Sender in otrace.NewBounded), so backpressure here never stalls
	// probe pacing.
	Lossy bool
	// Queue is the per-connection queue capacity in Lossy mode
	// (default 1024).
	Queue int
	// Metrics, if non-nil, exposes per-source counters:
	// source.events{source=<peer>} events delivered and
	// source.dropped{source=<peer>} events discarded on queue overrun,
	// plus the relay.conns gauge of live connections.
	Metrics *obs.Registry
	// Label maps a connection to its metrics label; defaults to the
	// peer address with the ephemeral port stripped, keeping metric
	// cardinality per host rather than per connection.
	Label func(net.Conn) string
	// Grace bounds how long Close waits for connected streams to end
	// on their own (peer disconnect) before force-cancelling their
	// reads. Zero means 5 s; negative means cancel immediately.
	Grace time.Duration
	// Logf, if non-nil, logs connection lifecycle and errors.
	Logf func(format string, args ...any)
	// StaleAfter, when positive, is the silence threshold after which a
	// still-connected source counts as stale: it marks the source's
	// /statusz row and fails the Health readiness check below. Zero
	// disables staleness tracking.
	StaleAfter time.Duration
	// Health, if non-nil, gains a "sources" readiness check that fails
	// while any connected source is stale (see StaleAfter); Close
	// removes the check. Pass obs.DefaultHealth to surface it on the
	// process's /healthz.
	Health *obs.Health
}

// Server accepts framed event streams and fans them into one sink.
type Server struct {
	ln     net.Listener
	cfg    ServerConfig
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu      sync.Mutex // guards the source table
	sources map[string]*sourceState
	order   []string

	// closed quiesces the per-scrape gauge refresh hook after Close —
	// OnScrape hooks are process-lifetime, but servers (in tests) are
	// not.
	closed atomic.Bool
}

// Serve starts accepting connections on ln, each read (readStream)
// into cfg.Sink. It returns immediately; Close shuts
// the listener and waits for the connection handlers to drain.
func Serve(ln net.Listener, cfg ServerConfig) (*Server, error) {
	if cfg.Sink == nil {
		return nil, fmt.Errorf("source: serve: nil sink")
	}
	if cfg.Queue <= 0 {
		cfg.Queue = 1024
	}
	if cfg.Label == nil {
		cfg.Label = hostLabel
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	s := &Server{ln: ln, cfg: cfg, sources: make(map[string]*sourceState)}
	s.ctx, s.cancel = context.WithCancel(context.Background())
	if cfg.Health != nil && cfg.StaleAfter > 0 {
		cfg.Health.AddCheck("sources", s.staleCheck)
	}
	if cfg.Metrics != nil {
		obs.OnScrape(s.refreshGauges)
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr reports the listener's address (useful with ":0").
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			// Close shuts the listener before cancelling the context, so
			// the shutdown-induced accept error is not worth reporting.
			if s.ctx.Err() == nil && !errors.Is(err, net.ErrClosed) {
				s.cfg.Logf("relay: accept: %v", err)
			}
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handle(conn)
		}()
	}
}

func (s *Server) handle(conn net.Conn) {
	label := s.cfg.Label(conn)
	st := s.state(label)
	st.conns.Add(1)
	defer st.conns.Add(-1)
	var dropCtr, events *obs.Counter
	if s.cfg.Metrics != nil {
		// Register the drop counter up front so /metrics shows it at 0
		// rather than only after the first overrun.
		dropCtr = s.cfg.Metrics.Counter(obs.Label("source.dropped", "source", label))
		events = s.cfg.Metrics.Counter(obs.Label("source.events", "source", label))
		conns := s.cfg.Metrics.Gauge("relay.conns")
		conns.Add(1)
		defer conns.Add(-1)
	}
	onDrop := func() {
		st.dropped.Add(1)
		if dropCtr != nil {
			dropCtr.Inc()
		}
	}
	sink := s.cfg.Sink
	// Delivered events count after the lossy queue (below), so
	// delivered + dropped always equals ingress — the relay chain's
	// produced-side account (see Totals).
	sink = deliveredSink{next: sink, st: st, ctr: events}
	if s.cfg.Lossy {
		queue := otrace.NewBoundedCounted(sink, s.cfg.Queue, onDrop)
		defer queue.Close() //nolint:errcheck // always nil
		sink = queue
	}
	sink = ingressSink{st: st, next: sink}
	s.cfg.Logf("relay: %s connected", conn.RemoteAddr())
	if err := readStream(s.ctx, conn, label, sink); err != nil {
		s.cfg.Logf("relay: %s: %v", conn.RemoteAddr(), err)
		return
	}
	s.cfg.Logf("relay: %s finished", conn.RemoteAddr())
}

// Close stops accepting and waits for connected streams to finish. A
// peer that already disconnected drains completely — no event it sent
// is lost to shutdown — while a still-connected or silent peer is
// force-cancelled after the configured Grace.
func (s *Server) Close() error {
	s.closed.Store(true)
	if s.cfg.Health != nil && s.cfg.StaleAfter > 0 {
		s.cfg.Health.Remove("sources")
	}
	err := s.ln.Close()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	grace := s.cfg.Grace
	if grace == 0 {
		grace = 5 * time.Second
	}
	if grace > 0 {
		select {
		case <-done:
			s.cancel()
			return err
		case <-time.After(grace):
		}
	}
	s.cancel()
	<-done
	return err
}

// deliveredSink counts delivered events — into the per-source state
// and, when metrics are wired, the source.events{source=} counter — on
// the way to next.
type deliveredSink struct {
	next otrace.Sink
	st   *sourceState
	ctr  *obs.Counter
}

func (c deliveredSink) Emit(ev otrace.Event) {
	c.st.events.Add(1)
	if c.ctr != nil {
		c.ctr.Inc()
	}
	c.next.Emit(ev)
}

// hostLabel is the default ServerConfig.Label: the peer host without
// the ephemeral port.
func hostLabel(conn net.Conn) string {
	addr := conn.RemoteAddr().String()
	if host, _, err := net.SplitHostPort(addr); err == nil {
		return host
	}
	return addr
}
