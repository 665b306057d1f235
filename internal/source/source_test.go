package source

import (
	"bytes"
	"context"
	"errors"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"netprobe/internal/core"
	"netprobe/internal/netdyn"
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

// runToJSONL runs src into a JSONL buffer and returns the bytes.
func runToJSONL(t *testing.T, src Source) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := otrace.NewWriter(&buf)
	if err := src.Run(context.Background(), w); err != nil {
		t.Fatalf("%s: %v", src.Name(), err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSimSourceDeterministic: identical configs and seeds produce
// byte-identical JSONL through the Source interface, and SetSeed
// changes the stream.
func TestSimSourceDeterministic(t *testing.T) {
	a := runToJSONL(t, &SimSource{Config: simConfig()})
	b := runToJSONL(t, &SimSource{Config: simConfig()})
	if !bytes.Equal(a, b) {
		t.Fatal("same seed, different event streams")
	}
	reseeded := &SimSource{Config: simConfig()}
	Seedable(reseeded).SetSeed(43)
	if bytes.Equal(a, runToJSONL(t, reseeded)) {
		t.Fatal("different seed, identical event streams")
	}
}

// TestSimSourceTrace: the Traced view matches what core.RunSim returns
// directly.
func TestSimSourceTrace(t *testing.T) {
	src := &SimSource{Config: simConfig()}
	if src.Trace() != nil {
		t.Fatal("trace before run")
	}
	runToJSONL(t, src)
	tr := Traced(src).Trace()
	if tr == nil {
		t.Fatal("no trace after run")
	}
	direct, err := core.RunSim(simConfig())
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != direct.Len() || tr.LossRate() != direct.LossRate() {
		t.Fatalf("source trace (%d, %v) differs from direct run (%d, %v)",
			tr.Len(), tr.LossRate(), direct.Len(), direct.LossRate())
	}
}

// TestSimSourceCancelled: an already-cancelled context stops the run
// before it starts.
func TestSimSourceCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	src := &SimSource{Config: simConfig()}
	if err := src.Run(ctx, otrace.NewWriter(&bytes.Buffer{})); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// TestFileSourceReplay: recording a sim to disk and replaying it
// through FileSource reproduces the JSONL byte-for-byte and
// reconstructs the run's trace.
func TestFileSourceReplay(t *testing.T) {
	recorded := runToJSONL(t, &SimSource{Config: simConfig()})
	path := filepath.Join(t.TempDir(), "run.jsonl")
	if err := os.WriteFile(path, recorded, 0o644); err != nil {
		t.Fatal(err)
	}
	src := &FileSource{Paths: []string{path}}
	replayed := runToJSONL(t, src)
	if !bytes.Equal(recorded, replayed) {
		t.Fatal("replay is not byte-identical to the recording")
	}
	if src.Trace() == nil {
		t.Fatal("no reconstructed trace after replay")
	}
}

// TestFileSourceTruncated: a cut stream fails with ErrTruncated unless
// AllowTruncated keeps the prefix.
func TestFileSourceTruncated(t *testing.T) {
	recorded := runToJSONL(t, &SimSource{Config: simConfig()})
	path := filepath.Join(t.TempDir(), "cut.jsonl")
	if err := os.WriteFile(path, recorded[:len(recorded)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	strict := &FileSource{Paths: []string{path}}
	if err := strict.Run(context.Background(), otrace.NewWriter(&bytes.Buffer{})); !errors.Is(err, otrace.ErrTruncated) {
		t.Fatalf("got %v, want ErrTruncated", err)
	}
	var buf bytes.Buffer
	w := otrace.NewWriter(&buf)
	tolerant := &FileSource{Paths: []string{path}, AllowTruncated: true}
	if err := tolerant.Run(context.Background(), w); err != nil {
		t.Fatal(err)
	}
	w.Close() //nolint:errcheck // buffer writer
	if buf.Len() == 0 || !bytes.HasPrefix(recorded, buf.Bytes()) {
		t.Fatal("tolerant replay did not deliver the decodable prefix")
	}
}

// TestProbeSourceLoopback: a real loopback probing session runs
// through the Source interface and reports its trace and detail.
func TestProbeSourceLoopback(t *testing.T) {
	e, err := netdyn.NewEchoer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close() //nolint:errcheck // test server

	src := &ProbeSource{Config: netdyn.ProbeConfig{
		Target: e.Addr().String(),
		Delta:  2 * time.Millisecond,
		Count:  50,
		Drain:  time.Second,
	}}
	events := runToJSONL(t, src)
	if src.Trace() == nil || src.Detail() == nil {
		t.Fatal("no trace/detail after run")
	}
	if got := src.Trace().Len(); got != 50 {
		t.Fatalf("trace length %d, want 50", got)
	}
	if !bytes.Contains(events, []byte(`"ev":"rtt"`)) {
		t.Fatal("no rtt events in the stream")
	}
}

// TestRemoteRoundTrip: sim → Sender → TCP → Serve → Writer produces
// JSONL byte-identical to the same sim run locally, and the relay's
// per-source event counter matches.
func TestRemoteRoundTrip(t *testing.T) {
	local := runToJSONL(t, &SimSource{Config: simConfig()})

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
	if err := (&SimSource{Config: simConfig()}).Run(context.Background(), sender); err != nil {
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

// TestRemoteSourceCancelled: cancelling the server context unblocks a
// pending read on a silent peer.
func TestRemoteSourceCancelled(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close() //nolint:errcheck // test listener

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			done <- err
			return
		}
		rs := &RemoteSource{Conn: conn}
		done <- rs.Run(ctx, otrace.NewWriter(&bytes.Buffer{}))
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close() //nolint:errcheck // test peer
	// Send the magic so the reader gets past the handshake, then go
	// silent.
	sender := NewSender(conn)
	sender.Emit(otrace.Event{Ev: otrace.KindProbeSent})

	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("got %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled remote source did not return")
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
