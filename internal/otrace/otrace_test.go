package otrace

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestWriterJSONL(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Emit(Event{Ev: KindRunStart, Seq: -1, Name: "x δ=50ms", DeltaNs: 50e6, Count: 2})
	w.Emit(Event{T: 0, Ev: KindProbeSent, Seq: 0, Flow: "probe"})
	w.Emit(Event{T: 140e6, Ev: KindRTT, Seq: 0, SentNs: 0, RecvNs: 140e6, RTTNs: 140e6})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3:\n%s", len(lines), buf.String())
	}
	if w.Events() != 3 {
		t.Fatalf("Events() = %d, want 3", w.Events())
	}
	for _, l := range lines {
		if !strings.HasPrefix(l, `{"t":`) {
			t.Errorf("line does not look like an event: %s", l)
		}
	}
	// Round trip: Read yields the same events in order.
	var got []Event
	if err := Read(strings.NewReader(buf.String()), func(ev Event) error {
		got = append(got, ev)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0].Ev != KindRunStart || got[2].RTTNs != 140e6 {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if got[0].Name != "x δ=50ms" {
		t.Fatalf("metadata lost: %q", got[0].Name)
	}
}

func TestCreateWritesFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w.Emit(Event{Ev: KindProbeSent, Seq: 7})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"probe_sent"`) {
		t.Fatalf("file content: %s", data)
	}
}

// TestWriterDeterministic: the same event sequence produces the same
// bytes — the property the cross-worker trace determinism test in
// internal/runner builds on.
func TestWriterDeterministic(t *testing.T) {
	render := func() string {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		for i := 0; i < 100; i++ {
			w.Emit(Event{T: int64(i) * 1e6, Ev: KindEnqueue, Seq: i, Queue: "hop4", Dir: "fwd", QLen: i % 5})
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if render() != render() {
		t.Fatal("identical event sequences rendered differently")
	}
}

// TestWriterConcurrent hammers one Writer from many goroutines; run
// under -race this is the sink race test. Every event must come out
// as a whole line.
func TestWriterConcurrent(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	var wg sync.WaitGroup
	const goroutines, each = 8, 200
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				w.Emit(Event{T: int64(i), Ev: KindProbeSent, Seq: i, Flow: "probe"})
			}
		}(g)
	}
	wg.Wait()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	n := 0
	if err := Read(strings.NewReader(buf.String()), func(Event) error {
		n++
		return nil
	}); err != nil {
		t.Fatal(err) // a torn line would fail to decode
	}
	if want := goroutines * each; n != want {
		t.Fatalf("got %d events, want %d", n, want)
	}
	if w.Events() != int64(goroutines*each) {
		t.Fatalf("Events() = %d, want %d", w.Events(), goroutines*each)
	}
}

// blockingSink blocks every Emit until released.
type blockingSink struct {
	release chan struct{}
	seen    int
	mu      sync.Mutex
}

func (s *blockingSink) Emit(Event) {
	<-s.release
	s.mu.Lock()
	s.seen++
	s.mu.Unlock()
}

func TestBoundedDropsWhenFull(t *testing.T) {
	bs := &blockingSink{release: make(chan struct{})}
	b := NewBounded(bs, 4)
	// The drainer takes one event and blocks inside Emit; 4 more fit
	// in the channel; everything beyond that must be dropped, not
	// block the producer.
	for i := 0; i < 50; i++ {
		b.Emit(Event{Ev: KindProbeSent, Seq: i})
	}
	if b.Dropped() == 0 {
		t.Fatal("no events dropped despite a full queue")
	}
	close(bs.release)
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	bs.mu.Lock()
	delivered := bs.seen
	bs.mu.Unlock()
	if int64(delivered)+b.Dropped() != 50 {
		t.Fatalf("delivered %d + dropped %d != emitted 50", delivered, b.Dropped())
	}
	// Emit after Close counts as a drop rather than panicking.
	before := b.Dropped()
	b.Emit(Event{Ev: KindProbeSent, Seq: 99})
	if b.Dropped() != before+1 {
		t.Fatal("Emit after Close not counted as a drop")
	}
}

// TestBoundedConcurrent: many producers, bounded queue, real writer
// downstream; under -race this checks the whole pipeline.
func TestBoundedConcurrent(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	b := NewBounded(w, 64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				b.Emit(Event{T: int64(i), Ev: KindEcho, Seq: i})
			}
		}()
	}
	wg.Wait()
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got := w.Events() + b.Dropped(); got != 8*500 {
		t.Fatalf("written %d + dropped %d != emitted %d", w.Events(), b.Dropped(), 8*500)
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	err := Read(strings.NewReader("{\"t\":1}\nnot json\n"), func(Event) error { return nil })
	if err == nil {
		t.Fatal("garbage line accepted")
	}
}

type countSink struct{ n atomic.Int64 }

func (c *countSink) Emit(Event) { c.n.Add(1) }

func TestMulti(t *testing.T) {
	var a, b countSink
	if s := Multi(nil, nil); s != nil {
		t.Errorf("Multi of nils = %v, want nil", s)
	}
	if s := Multi(&a, nil); s != Sink(&a) {
		t.Errorf("Multi of one sink should unwrap")
	}
	// Discard is dropped like nil: composing it in costs nothing, and a
	// composition of nothing but Discard is nil, so producers skip
	// building events nobody keeps.
	if s := Multi(Discard, nil); s != nil {
		t.Errorf("Multi(Discard, nil) = %v, want nil", s)
	}
	if s := Multi(&a, Discard); s != Sink(&a) {
		t.Errorf("Multi(&a, Discard) = %v, want &a unwrapped", s)
	}
	m := Multi(&a, nil, &b)
	m.Emit(Event{Ev: KindRTT})
	m.Emit(Event{Ev: KindRTT})
	if a.n.Load() != 2 || b.n.Load() != 2 {
		t.Errorf("fan-out counts a=%d b=%d, want 2/2", a.n.Load(), b.n.Load())
	}
}

// Drop accounting under concurrent senders: every emitted event must
// be either delivered downstream or counted as dropped — no loss, no
// double counting — even with Close racing the tail of the send burst.
// Run with -race to validate the synchronization itself.
func TestBoundedConcurrentDropAccounting(t *testing.T) {
	var sink countSink
	b := NewBounded(&sink, 4) // tiny queue to force real drops
	const (
		senders = 8
		perSend = 2000
	)
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < perSend; i++ {
				b.Emit(Event{Ev: KindRTT, Seq: s*perSend + i})
			}
		}(s)
	}
	wg.Wait()
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	delivered, dropped := sink.n.Load(), b.Dropped()
	if delivered+dropped != senders*perSend {
		t.Fatalf("delivered %d + dropped %d = %d, want %d",
			delivered, dropped, delivered+dropped, senders*perSend)
	}
	if delivered == 0 {
		t.Error("nothing delivered: queue never drained")
	}
	t.Logf("delivered=%d dropped=%d", delivered, dropped)
}

// Emit after Close must count as dropped, not panic or deliver.
func TestBoundedEmitAfterClose(t *testing.T) {
	var sink countSink
	b := NewBounded(&sink, 4)
	b.Emit(Event{Ev: KindRTT})
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	before := b.Dropped()
	b.Emit(Event{Ev: KindRTT})
	if got := b.Dropped(); got != before+1 {
		t.Errorf("Dropped after post-Close Emit = %d, want %d", got, before+1)
	}
	if sink.n.Load() != 1 {
		t.Errorf("delivered = %d, want 1", sink.n.Load())
	}
}
