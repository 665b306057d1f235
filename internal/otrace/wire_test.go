package otrace

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"math"
	"sync/atomic"
	"testing"
	"time"
)

// wireEvents is a field-exercising sample: every Event field nonzero
// somewhere, including negative stamps and the Seq=-1 convention of
// run- and job-level events.
func wireEvents() []Event {
	return []Event{
		{Ev: KindRunStart, Seq: -1, Name: "inria δ=50ms", DeltaNs: int64(50 * time.Millisecond),
			PayloadBytes: 32, WireBytes: 72, BottleneckBps: 128_000, ClockResNs: 3906250, Count: 12000},
		{T: 1, Ev: KindJobStart, Seq: -1, Job: "inria δ=50ms", Index: 3, Seed: -7842},
		{T: 50_000_000, Ev: KindProbeSent, Seq: 0, Flow: "probe"},
		{T: 51_234_567, Ev: KindEnqueue, Seq: 0, Flow: "probe", Queue: "hop4", Dir: "fwd", QLen: 17},
		{T: 60_000_001, Ev: KindRTT, Seq: 0, Flow: "probe", SentNs: 50_000_000, RecvNs: 60_000_001, RTTNs: 10_000_001},
		{T: 70_000_000, Ev: KindDrop, Seq: 1, Flow: "probe", Queue: "hop4", Dir: "ret"},
		{T: 80_000_000, Ev: KindFault, Seq: 2, Fault: "delay", DurNs: int64(100 * time.Millisecond)},
		{T: 90_000_000, Ev: KindGap, Seq: 3, Probes: 12, DurNs: int64(2 * time.Second)},
		{Ev: KindJobFinish, Seq: -1, Job: "inria δ=50ms", Index: 3, Seed: -7842, Probes: 12000, Losses: 1080},
	}
}

// TestWireRoundTrip: encode → decode reproduces every event exactly,
// so the JSONL a receiver writes is byte-identical to what the sender
// would have written locally.
func TestWireRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf)
	for _, ev := range wireEvents() {
		if err := fw.WriteEvent(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	fr, err := NewFrameReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range wireEvents() {
		got, err := fr.Next()
		if err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("event %d round-trip:\ngot  %+v\nwant %+v", i, got, want)
		}
		// The JSONL representations match too — the byte-identity the
		// equivalence tests build on.
		gj, _ := json.Marshal(got)
		wj, _ := json.Marshal(want)
		if !bytes.Equal(gj, wj) {
			t.Fatalf("event %d JSONL differs: %s vs %s", i, gj, wj)
		}
	}
	if _, err := fr.Next(); err != io.EOF {
		t.Fatalf("after last frame: %v, want io.EOF", err)
	}
	if fr.Events() != int64(len(wireEvents())) {
		t.Fatalf("reader counted %d events, want %d", fr.Events(), len(wireEvents()))
	}
}

// TestWireDeterministic: identical event sequences produce identical
// byte streams.
func TestWireDeterministic(t *testing.T) {
	enc := func() []byte {
		var buf bytes.Buffer
		fw := NewFrameWriter(&buf)
		for _, ev := range wireEvents() {
			if err := fw.WriteEvent(ev); err != nil {
				t.Fatal(err)
			}
		}
		if err := fw.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(enc(), enc()) {
		t.Fatal("framed streams differ across identical encodes")
	}
}

// TestWireTruncated: a stream cut mid-frame surfaces ErrTruncated, not
// a bogus event; events before the cut are still delivered.
func TestWireTruncated(t *testing.T) {
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf)
	evs := wireEvents()
	for _, ev := range evs {
		if err := fw.WriteEvent(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:buf.Len()-3]
	fr, err := NewFrameReader(bytes.NewReader(cut))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		_, err := fr.Next()
		if err == nil {
			n++
			continue
		}
		if !errors.Is(err, ErrTruncated) {
			t.Fatalf("cut stream error %v, want ErrTruncated", err)
		}
		break
	}
	if n != len(evs)-1 {
		t.Fatalf("delivered %d events before the cut, want %d", n, len(evs)-1)
	}
}

// TestWireBadMagic: a non-framed stream is rejected up front.
func TestWireBadMagic(t *testing.T) {
	if _, err := NewFrameReader(bytes.NewReader([]byte(`{"t":0}`))); !errors.Is(err, ErrTruncated) {
		t.Fatalf("bad magic error %v, want ErrTruncated", err)
	}
}

// TestDecodeTrailingBytes: extra bytes after a valid event are a
// framing error, not silently ignored — and truncation errors too,
// except at the one compatible boundary: a payload ending exactly
// where the Value field would begin is a version-1 frame, whose Value
// decodes as 0.
func TestDecodeTrailingBytes(t *testing.T) {
	buf := AppendEvent(nil, Event{Ev: KindProbeSent, Seq: 5})
	if _, err := DecodeEvent(append(buf, 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	// Value==0 encodes as one trailing zero byte; chopping it leaves a
	// valid version-1 payload.
	ev, err := DecodeEvent(buf[:len(buf)-1])
	if err != nil {
		t.Fatalf("version-1 payload (no Value field) rejected: %v", err)
	}
	if ev.Seq != 5 || ev.Value != 0 {
		t.Fatalf("version-1 payload decoded as %+v", ev)
	}
	// Truncation anywhere earlier is still an error.
	if _, err := DecodeEvent(buf[:len(buf)-2]); err == nil {
		t.Fatal("short event accepted")
	}
	// As is truncation inside a multi-byte Value encoding.
	vbuf := AppendEvent(nil, Event{Ev: KindProbeSent, Seq: 5, Value: 1.5})
	if _, err := DecodeEvent(vbuf[:len(vbuf)-1]); err == nil {
		t.Fatal("mid-Value truncation accepted")
	}
}

// TestWireAcceptsV1 pins backward compatibility: a stream framed by a
// version-1 sender (OTR1 magic, payloads ending before the Value
// field) decodes cleanly on the current reader, Value defaulting to 0.
func TestWireAcceptsV1(t *testing.T) {
	fr, err := NewFrameReader(bytes.NewReader(v1Stream(wireEvents())))
	if err != nil {
		t.Fatalf("OTR1 stream rejected: %v", err)
	}
	for i, want := range wireEvents() {
		got, err := fr.Next()
		if err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("event %d from v1 stream:\ngot  %+v\nwant %+v", i, got, want)
		}
	}
	if _, err := fr.Next(); err != io.EOF {
		t.Fatalf("after last frame: %v, want io.EOF", err)
	}
}

// v1Stream frames evs the way a version-1 sender did: OTR1 magic and
// payloads ending before the Value field (evs must carry no Value).
func v1Stream(evs []Event) []byte {
	buf := []byte("OTR1")
	for _, ev := range evs {
		payload := AppendEvent(nil, ev)
		payload = payload[:len(payload)-1] // strip the zero Value byte
		buf = binary.AppendUvarint(buf, uint64(len(payload)))
		buf = append(buf, payload...)
	}
	return buf
}

// frameStream frames evs as the current FrameWriter does.
func frameStream(t testing.TB, evs []Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf)
	for _, ev := range evs {
		if err := fw.WriteEvent(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzFrameReader feeds arbitrary bytes to the frame decoder that the
// relay wire and the coordinator's journal share. NewFrameReader and
// Next never panic, every error other than a clean io.EOF wraps
// ErrTruncated, and the events decoded before the stream ended
// re-encode through FrameWriter to a stream that decodes to the same
// events.
func FuzzFrameReader(f *testing.F) {
	v2 := frameStream(f, wireEvents())
	f.Add(v2)
	f.Add(v1Stream(wireEvents()))
	f.Add(v2[:len(v2)-5]) // cut mid-frame
	f.Add(append([]byte("OTR3"), v2[4:]...))
	f.Add(frameStream(f, []Event{{Ev: KindAlert, Seq: -1, Value: math.NaN()}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		var got []Event
		fr, err := NewFrameReader(bytes.NewReader(data))
		for err == nil {
			var ev Event
			if ev, err = fr.Next(); err == nil {
				got = append(got, ev)
			}
		}
		if err != io.EOF && !errors.Is(err, ErrTruncated) {
			t.Fatalf("after %d events: error %v neither io.EOF nor ErrTruncated", len(got), err)
		}
		fr2, err := NewFrameReader(bytes.NewReader(frameStream(t, got)))
		if err != nil {
			t.Fatal(err)
		}
		for i, want := range got {
			ev, err := fr2.Next()
			if err != nil {
				t.Fatalf("re-encoded event %d: %v", i, err)
			}
			if !sameEvent(ev, want) {
				t.Fatalf("re-encoded event %d:\ngot  %+v\nwant %+v", i, ev, want)
			}
		}
		if _, err := fr2.Next(); err != io.EOF {
			t.Fatalf("re-encoded stream after %d events: %v, want io.EOF", len(got), err)
		}
	})
}

// sameEvent compares events field by field, Value by its bits so a
// decoded NaN equals itself.
func sameEvent(a, b Event) bool {
	if math.Float64bits(a.Value) != math.Float64bits(b.Value) {
		return false
	}
	a.Value, b.Value = 0, 0
	return a == b
}

// TestBoundedCounted: the onDrop hook fires once per discarded event,
// matching the internal Dropped tally.
func TestBoundedCounted(t *testing.T) {
	block := make(chan struct{})
	var external atomic.Int64
	b := NewBoundedCounted(sinkFunc(func(Event) { <-block }), 1, func() { external.Add(1) })
	for i := 0; i < 10; i++ {
		b.Emit(Event{Seq: i})
	}
	close(block)
	b.Close() //nolint:errcheck // always nil
	if b.Dropped() == 0 {
		t.Fatal("expected drops with a blocked downstream")
	}
	if external.Load() != b.Dropped() {
		t.Fatalf("onDrop fired %d times, Dropped reports %d", external.Load(), b.Dropped())
	}
}

type sinkFunc func(Event)

func (f sinkFunc) Emit(ev Event) { f(ev) }

// TestAppendFrameLengthPrefix: AppendFrame writes the same bytes as
// FrameWriter for payloads whose length prefix takes one, two and three
// bytes, appends after existing content, and refuses an oversized
// event without touching the buffer.
func TestAppendFrameLengthPrefix(t *testing.T) {
	var evs []Event
	for _, n := range []int{0, 100, 130, 20_000} {
		evs = append(evs, Event{Ev: KindRTT, Seq: n, Name: string(bytes.Repeat([]byte{'x'}, n))})
	}
	var want bytes.Buffer
	fw := NewFrameWriter(&want)
	got := AppendStreamHeader(nil)
	for _, ev := range evs {
		if err := fw.WriteEvent(ev); err != nil {
			t.Fatal(err)
		}
		var err error
		if got, err = AppendFrame(got, ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	fr, err := NewFrameReader(bytes.NewReader(got))
	if err != nil {
		t.Fatal(err)
	}
	for i, ev := range evs {
		if back, err := fr.Next(); err != nil || back != ev {
			t.Fatalf("frame %d: decoded %v, err %v", i, back.Seq, err)
		}
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatal("AppendFrame bytes differ from FrameWriter's")
	}
	huge := Event{Name: string(make([]byte, MaxFrame))}
	if out, err := AppendFrame(got, huge); err == nil || len(out) != len(got) {
		t.Fatalf("oversized frame: err %v, buffer %d → %d bytes", err, len(got), len(out))
	}
}
