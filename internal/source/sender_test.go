package source

import (
	"bytes"
	"errors"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"netprobe/internal/otrace"
)

// gateWriter records every Write; the first one blocks until release
// is closed.
type gateWriter struct {
	release chan struct{}
	entered chan struct{} // closed when the first Write starts

	mu     sync.Mutex
	writes int
	buf    bytes.Buffer
}

func newGateWriter() *gateWriter {
	return &gateWriter{release: make(chan struct{}), entered: make(chan struct{})}
}

func (g *gateWriter) Write(p []byte) (int, error) {
	g.mu.Lock()
	g.writes++
	first := g.writes == 1
	g.buf.Write(p)
	g.mu.Unlock()
	if first {
		close(g.entered)
		<-g.release
	}
	return len(p), nil
}

// countFrames decodes complete frames from the start of stream until
// the first error, so a truncated tail counts for nothing.
func countFrames(stream []byte) int64 {
	fr, err := otrace.NewFrameReader(bytes.NewReader(stream))
	if err != nil {
		return 0
	}
	var n int64
	for {
		if _, err := fr.Next(); err != nil {
			return n
		}
		n++
	}
}

// TestSenderCoalescesWrites: while one write is in flight, Emit only
// appends, and everything emitted meanwhile leaves in the next Write.
func TestSenderCoalescesWrites(t *testing.T) {
	const n = 1000
	gw := newGateWriter()
	s := NewSender(gw)
	s.Emit(otrace.Event{Ev: otrace.KindRTT, Seq: 0})
	<-gw.entered // the flusher is now stuck in its first Write
	for i := 1; i < n; i++ {
		s.Emit(otrace.Event{Ev: otrace.KindRTT, Seq: i})
	}
	close(gw.release)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	gw.mu.Lock()
	defer gw.mu.Unlock()
	if gw.writes > 3 {
		t.Errorf("%d frames took %d writes, want at most 3", n, gw.writes)
	}
	if got := countFrames(gw.buf.Bytes()); got != n || s.Sent() != n {
		t.Errorf("stream holds %d frames, Sent=%d, want %d", got, s.Sent(), n)
	}
}

// TestSenderLoneEventLeavesPromptly: one event reaches the peer with no
// further Emit and no Close — there is no timer to wait out.
func TestSenderLoneEventLeavesPromptly(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close() //nolint:errcheck // test listener
	s, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close() //nolint:errcheck // test teardown
	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close() //nolint:errcheck // read side
	s.Emit(otrace.Event{Ev: otrace.KindProbeSent, Seq: 7})

	conn.SetReadDeadline(time.Now().Add(time.Second)) //nolint:errcheck // loopback conn
	fr, err := otrace.NewFrameReader(conn)
	if err != nil {
		t.Fatalf("stream header did not arrive within 1s: %v", err)
	}
	ev, err := fr.Next()
	if err != nil || ev.Seq != 7 {
		t.Fatalf("lone event did not arrive within 1s: %+v, %v", ev, err)
	}
}

var errBroken = errors.New("peer gone")

// failAfter accepts its first k bytes, then fails every Write; the
// Write that crosses k is short.
type failAfter struct {
	left int
	buf  bytes.Buffer
}

func (f *failAfter) Write(p []byte) (int, error) {
	if len(p) <= f.left {
		f.left -= len(p)
		return f.buf.Write(p)
	}
	n := f.left
	f.left = 0
	f.buf.Write(p[:n])
	return n, errBroken
}

// TestSenderShortWriteAccounts: whatever prefix a failing write lets
// through — inside the header, on a frame boundary, mid-frame — the
// stream holds exactly Sent complete frames and every Emit is in
// exactly one account.
func TestSenderShortWriteAccounts(t *testing.T) {
	const n = 200
	one, _ := otrace.AppendFrame(nil, otrace.Event{Ev: otrace.KindRTT, Seq: 1})
	for _, k := range []int{0, 3, 4, 5, 4 + len(one), 4 + 10*len(one) + 1, 2000, 1 << 20} {
		fw := &failAfter{left: k}
		s := NewSender(fw)
		for i := 0; i < n; i++ {
			s.Emit(otrace.Event{Ev: otrace.KindRTT, Seq: i})
		}
		err := s.Close()
		if k < 1<<20 && !errors.Is(err, errBroken) {
			t.Errorf("k=%d: Close = %v, want the write error", k, err)
		}
		if got := s.Sent() + s.Dropped(); got != n {
			t.Errorf("k=%d: Sent(%d)+Dropped(%d) = %d, want %d", k, s.Sent(), s.Dropped(), got, n)
		}
		if got := countFrames(fw.buf.Bytes()); got != s.Sent() {
			t.Errorf("k=%d: stream holds %d complete frames, Sent=%d", k, got, s.Sent())
		}
	}
}

// auditWriter checks, inside every Write, that the Sender already
// counts every complete frame the peer could read once the write lands.
type auditWriter struct {
	s    *Sender
	buf  bytes.Buffer
	lags int
}

func (a *auditWriter) Write(p []byte) (int, error) {
	a.buf.Write(p)
	if countFrames(a.buf.Bytes()) > a.s.Sent() {
		a.lags++
	}
	return len(p), nil
}

// TestSenderCountsBeforeWrite: Sent never lags the bytes on the wire —
// a consumer that has read every frame may rely on Sent at once.
func TestSenderCountsBeforeWrite(t *testing.T) {
	aw := &auditWriter{}
	s := NewSender(aw)
	aw.s = s
	for i := 0; i < 500; i++ {
		s.Emit(otrace.Event{Ev: otrace.KindRTT, Seq: i})
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if aw.lags != 0 {
		t.Fatalf("%d writes put frames on the wire before Sent counted them", aw.lags)
	}
}

// gateFailWriter blocks its first Write until release, then fails it
// and every later one.
type gateFailWriter struct{ *gateWriter }

func (g gateFailWriter) Write(p []byte) (int, error) {
	g.gateWriter.Write(p) //nolint:errcheck // recording only
	return 0, errBroken
}

// TestSenderFailedStreamDropsPending: frames queued behind a write that
// fails belong to the dead stream: they are dropped, and after a redial
// the new stream opens with its own header and carries none of them.
func TestSenderFailedStreamDropsPending(t *testing.T) {
	dead := newGateWriter()
	var next lockedBuffer
	dials := 0
	s := DialAuto("", Redial{
		Backoff: time.Millisecond,
		Dial: func() (io.Writer, error) {
			if dials++; dials == 1 {
				return gateFailWriter{dead}, nil
			}
			return &next, nil
		},
	})
	defer s.Close() //nolint:errcheck // test teardown
	s.Emit(otrace.Event{Ev: otrace.KindRTT, Seq: 0})
	<-dead.entered
	for i := 1; i < 100; i++ {
		s.Emit(otrace.Event{Ev: otrace.KindRTT, Seq: i})
	}
	close(dead.release)
	waitFor(t, func() bool { return s.Redials() == 1 }, "the redial")
	if s.Sent() != 0 || s.Dropped() != 100 {
		t.Fatalf("dead stream: Sent=%d Dropped=%d, want 0 and 100", s.Sent(), s.Dropped())
	}
	s.Emit(otrace.Event{Ev: otrace.KindRTT, Seq: 100})
	waitFor(t, func() bool { return countFrames(next.Bytes()) == 1 }, "the event on the new stream")
	fr, err := otrace.NewFrameReader(bytes.NewReader(next.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if ev, err := fr.Next(); err != nil || ev.Seq != 100 {
		t.Fatalf("new stream opens with %+v, %v; want only Seq 100", ev, err)
	}
	if _, err := fr.Next(); err != io.EOF {
		t.Fatalf("new stream carries more than one frame: %v", err)
	}
	if s.Sent() != 1 || s.Dropped() != 100 {
		t.Fatalf("after the redial: Sent=%d Dropped=%d, want 1 and 100", s.Sent(), s.Dropped())
	}
}

// TestSenderBoundsPending: against a peer that never takes a byte,
// Emit blocks once pendingMax bytes are pending, and the buffer stays
// within the bound plus one frame.
func TestSenderBoundsPending(t *testing.T) {
	gw := newGateWriter()
	s := NewSender(gw)
	s.Emit(otrace.Event{Ev: otrace.KindRTT})
	<-gw.entered // the only Write in flight never returns until release

	ev := otrace.Event{Ev: otrace.KindRTT, Flow: strings.Repeat("f", 100)}
	frame, _ := otrace.AppendFrame(nil, ev)
	total := 2 * pendingMax / len(frame)
	var emitted atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < total; i++ {
			s.Emit(ev)
			emitted.Add(1)
		}
	}()
	waitFor(t, func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(s.pending) >= pendingMax
	}, "pending to reach its bound")
	before := emitted.Load()
	select {
	case <-done:
		t.Fatal("Emit never blocked on a stalled peer")
	case <-time.After(50 * time.Millisecond):
	}
	s.mu.Lock()
	size := len(s.pending)
	s.mu.Unlock()
	if size > pendingMax+len(frame) {
		t.Errorf("pending grew to %d bytes, bound %d + one %d-byte frame", size, pendingMax, len(frame))
	}
	if after := emitted.Load(); after != before {
		t.Errorf("Emit kept returning at the bound: %d → %d", before, after)
	}

	close(gw.release)
	<-done
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := s.Sent(); got != int64(total)+1 {
		t.Errorf("Sent=%d after release, want %d", got, total+1)
	}
}

// flushers counts live flush goroutines across the process.
func flushers() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	// A running flusher shows flush; one not yet scheduled shows only
	// its entry, the method value flush-fm.
	return bytes.Count(buf, []byte("source.(*Sender).flush(")) +
		bytes.Count(buf, []byte("source.(*Sender).flush-fm("))
}

// TestSenderFlusherExits: the flush goroutine exits once the stream is
// idle, so a Sender that is never closed leaks nothing, and Close leaves
// none behind either.
func TestSenderFlusherExits(t *testing.T) {
	var buf lockedBuffer
	s := NewSender(&buf)
	for i := 0; i < 100; i++ {
		s.Emit(otrace.Event{Ev: otrace.KindRTT, Seq: i})
	}
	waitFor(t, func() bool { return countFrames(buf.Bytes()) == 100 }, "100 frames on the stream")
	waitFor(t, func() bool { return flushers() == 0 }, "the idle flusher to exit")
	s.Emit(otrace.Event{Ev: otrace.KindRTT, Seq: 100})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return flushers() == 0 }, "the flusher to exit after Close")
	if got := countFrames(buf.Bytes()); got != 101 {
		t.Fatalf("closed stream holds %d frames, want 101", got)
	}
}

// TestSenderEmitAllocs: a steady-state Emit into a healthy stream
// allocates nothing — neither the append nor starting the flusher.
func TestSenderEmitAllocs(t *testing.T) {
	s := NewSender(io.Discard)
	defer s.Close() //nolint:errcheck // io.Discard
	ev := otrace.Event{Ev: otrace.KindRTT, Seq: 1, Flow: "probe", SentNs: 1, RecvNs: 2, RTTNs: 1, Job: "j"}
	idle := func() {
		for {
			s.mu.Lock()
			busy := s.flushing
			s.mu.Unlock()
			if !busy {
				return
			}
			runtime.Gosched()
		}
	}
	for i := 0; i < 1000; i++ { // grow pending and the batch to size
		s.Emit(ev)
	}
	idle()
	if a := testing.AllocsPerRun(1000, func() { s.Emit(ev) }); a != 0 {
		t.Errorf("Emit during a burst: %v allocs, want 0", a)
	}
	idle()
	if a := testing.AllocsPerRun(200, func() { s.Emit(ev); idle() }); a != 0 {
		t.Errorf("Emit into an idle Sender (flusher start): %v allocs, want 0", a)
	}
}
