package otrace

import (
	"bytes"
	"compress/gzip"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
)

func TestRotatingWriterSegments(t *testing.T) {
	dir := t.TempDir()
	// Each rtt event marshals to ~60 bytes; 256-byte segments force
	// rotation every few events.
	w, err := CreateRotating(dir, "job-000", 256)
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	for i := 0; i < n; i++ {
		w.Emit(Event{T: int64(i) * 1000, Ev: KindRTT, Seq: i, RTTNs: int64(i) * 7})
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	paths := w.Paths()
	if len(paths) < 2 {
		t.Fatalf("expected multiple segments, got %v", paths)
	}
	if want := filepath.Join(dir, "job-000.jsonl.gz"); paths[0] != want {
		t.Errorf("first segment = %s, want %s", paths[0], want)
	}
	if want := filepath.Join(dir, "job-000-001.jsonl.gz"); paths[1] != want {
		t.Errorf("second segment = %s, want %s", paths[1], want)
	}
	if got := w.Events(); got != n {
		t.Errorf("Events() = %d, want %d", got, n)
	}

	var got []Event
	if err := ReadFiles(paths, func(ev Event) error {
		got = append(got, ev)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("replayed %d events, want %d", len(got), n)
	}
	for i, ev := range got {
		if ev.Seq != i || ev.T != int64(i)*1000 {
			t.Fatalf("event %d out of order: %+v", i, ev)
		}
	}
}

func TestRotatingWriterNoRotation(t *testing.T) {
	dir := t.TempDir()
	w, err := CreateRotating(dir, "job-001", 0) // unlimited
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		w.Emit(Event{Ev: KindRTT, Seq: i})
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if paths := w.Paths(); len(paths) != 1 {
		t.Fatalf("expected one segment, got %v", paths)
	}
}

// Read must decompress gzip streams transparently, so rotated .gz
// segments and legacy plain JSONL files replay through the same code.
func TestReadGzipTransparent(t *testing.T) {
	var plain bytes.Buffer
	w := NewWriter(&plain)
	w.Emit(Event{Ev: KindProbeSent, Seq: 1, T: 5})
	w.Emit(Event{Ev: KindRTT, Seq: 1, T: 9, RTTNs: 4})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	var gzipped bytes.Buffer
	zw := gzip.NewWriter(&gzipped)
	if _, err := zw.Write(plain.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		data []byte
	}{{"plain", plain.Bytes()}, {"gzip", gzipped.Bytes()}} {
		var seqs []int
		if err := Read(bytes.NewReader(tc.data), func(ev Event) error {
			seqs = append(seqs, ev.Seq)
			return nil
		}); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(seqs) != 2 || seqs[0] != 1 || seqs[1] != 1 {
			t.Errorf("%s: replayed seqs %v", tc.name, seqs)
		}
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

func BenchmarkRotatingWriter(b *testing.B) {
	dir := b.TempDir()
	w, err := CreateRotating(dir, "bench", 1<<20)
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close() //nolint:errcheck // bench
	ev := Event{Ev: KindRTT, Seq: 1, T: 12345, RTTNs: 6789}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.Seq = i
		w.Emit(ev)
	}
}
