package source

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"netprobe/internal/core"
	"netprobe/internal/obs"
	"netprobe/internal/otrace"
	"netprobe/internal/route"
)

// simConfig is a small, fast simulation all the source tests share.
func simConfig() core.SimConfig {
	return core.SimConfig{
		Path:  route.INRIAToUMd(),
		Delta: 50 * time.Millisecond,
		Count: 400,
		Seed:  42,
		Cross: ptr(core.DefaultINRIACross()),
	}
}

func ptr[T any](v T) *T { return &v }

// runToJSONL runs cfg with its events going to sink (when non-nil)
// and to a JSONL buffer, and returns the buffer's bytes.
func runToJSONL(t *testing.T, cfg core.SimConfig, sink otrace.Sink) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := otrace.NewWriter(&buf)
	cfg.Trace = otrace.Multi(w, sink)
	if _, err := core.RunSim(cfg); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRemoteRoundTrip: sim → Sender → TCP → Serve → Writer produces
// JSONL byte-identical to the same sim run locally, and the relay's
// per-source event counter matches.
func TestRemoteRoundTrip(t *testing.T) {
	local := runToJSONL(t, simConfig(), nil)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := otrace.NewWriter(&buf)
	reg := obs.NewRegistry()
	srv, err := Serve(ln, ServerConfig{Sink: w, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}

	sender, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	cfg := simConfig()
	cfg.Trace = sender
	if _, err := core.RunSim(cfg); err != nil {
		t.Fatal(err)
	}
	if err := sender.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(local, buf.Bytes()) {
		t.Fatal("remote stream is not byte-identical to the local run")
	}
	snap := reg.Snapshot()
	if got := snap.Counters[obs.Label("source.events", "source", "127.0.0.1")]; got != int64(bytes.Count(local, []byte("\n"))) {
		t.Fatalf("relay counted %d events, want %d", got, bytes.Count(local, []byte("\n")))
	}
	if got := snap.Counters[obs.Label("source.dropped", "source", "127.0.0.1")]; got != 0 {
		t.Fatalf("relay dropped %d events on an unloaded sink", got)
	}
}

// TestRemoteSourceCancelled: closing a server with no grace cancels
// the pending read on a silent peer, and the connection ends with the
// cancellation, not the forced read-deadline error it provoked.
func TestRemoteSourceCancelled(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	logs := make(chan string, 16)
	srv, err := Serve(ln, ServerConfig{
		Sink:  otrace.NewWriter(&bytes.Buffer{}),
		Grace: -1,
		Logf:  func(format string, args ...any) { logs <- fmt.Sprintf(format, args...) },
	})
	if err != nil {
		t.Fatal(err)
	}

	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close() //nolint:errcheck // test peer
	// Send the magic and one event so the reader gets past the
	// handshake, then go silent.
	sender := NewSender(conn)
	sender.Emit(otrace.Event{Ev: otrace.KindProbeSent})
	for src := srv.Sources(); len(src) == 0 || src[0].Events == 0; src = srv.Sources() {
		time.Sleep(time.Millisecond)
	}

	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled remote source did not return")
	}
	var last string
	for len(logs) > 0 {
		last = <-logs
	}
	if !strings.HasSuffix(last, context.Canceled.Error()) {
		t.Fatalf("connection ended with %q, want context.Canceled", last)
	}
}

// TestServeDropCounter: a jammed shared sink overruns the per-source
// queue; the drops surface on the metrics registry as they happen.
func TestServeDropCounter(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	block := make(chan struct{})
	first := make(chan struct{})
	var once bool
	jammed := sinkFunc(func(otrace.Event) {
		if !once {
			once = true
			close(first)
		}
		<-block
	})
	reg := obs.NewRegistry()
	srv, err := Serve(ln, ServerConfig{Sink: jammed, Metrics: reg, Lossy: true, Queue: 1})
	if err != nil {
		t.Fatal(err)
	}

	sender, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	<-sendEvents(sender, 100)
	<-first // the sink is now provably jammed mid-Emit

	dropped := reg.Counter(obs.Label("source.dropped", "source", "127.0.0.1"))
	deadline := time.After(5 * time.Second)
	for dropped.Value() == 0 {
		select {
		case <-deadline:
			t.Fatal("no drops surfaced on the registry")
		case <-time.After(time.Millisecond):
		}
	}
	close(block)
	if err := sender.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

// sendEvents emits n events on s from a goroutine, returning a channel
// closed when done.
func sendEvents(s *Sender, n int) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			s.Emit(otrace.Event{Ev: otrace.KindProbeSent, Seq: i})
		}
	}()
	return done
}

type sinkFunc func(otrace.Event)

func (f sinkFunc) Emit(ev otrace.Event) { f(ev) }
