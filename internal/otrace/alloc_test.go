//go:build !race

package otrace

import (
	"bytes"
	"io"
	"testing"
)

// The wire and JSONL hot paths carry every probe event of a relayed or
// traced run, so their per-event allocation budgets are pinned: a
// regression here turns into GC pressure exactly where the measurement
// plane is supposed to be invisible. (The file is excluded under -race, which
// instruments allocations.)

func wireEvent() Event {
	return Event{T: 123456789, Ev: KindRTT, Seq: 4242, SentNs: 111, RecvNs: 222, RTTNs: 333}
}

// TestAppendEventAllocs: encoding into a reused buffer is
// allocation-free.
func TestAppendEventAllocs(t *testing.T) {
	ev := wireEvent()
	buf := make([]byte, 0, 512)
	if n := testing.AllocsPerRun(1000, func() {
		buf = AppendEvent(buf[:0], ev)
	}); n != 0 {
		t.Errorf("AppendEvent allocates %.1f per event, want 0", n)
	}
}

// TestFrameWriterAllocs: framing reuses the writer's internal buffer —
// steady-state writes are allocation-free.
func TestFrameWriterAllocs(t *testing.T) {
	fw := NewFrameWriter(io.Discard)
	ev := wireEvent()
	if err := fw.WriteEvent(ev); err != nil { // warm the frame buffer
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(1000, func() {
		if err := fw.WriteEvent(ev); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("FrameWriter.WriteEvent allocates %.1f per event, want 0", n)
	}
}

// TestWriterEmitAllocs: the JSONL Writer encodes into a record buffer
// it reuses, so a steady-state Emit allocates nothing — neither for a
// bare rtt event nor for an enqueue event with string fields.
func TestWriterEmitAllocs(t *testing.T) {
	for _, ev := range []Event{
		wireEvent(),
		{T: 98765, Ev: KindEnqueue, Seq: 17, Queue: "hop4", Dir: "fwd", QLen: 3},
	} {
		w := NewWriter(io.Discard)
		w.Emit(ev) // warm the record buffer
		if n := testing.AllocsPerRun(1000, func() {
			w.Emit(ev)
		}); n != 0 {
			t.Errorf("Writer.Emit(%s) allocates %.1f per event, want 0", ev.Ev, n)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDecodeEventAllocs: decoding allocates only the event's string
// fields — one for the kind on a bare probe event.
func TestDecodeEventAllocs(t *testing.T) {
	frame := AppendEvent(nil, wireEvent())
	if n := testing.AllocsPerRun(1000, func() {
		if _, err := DecodeEvent(frame); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Errorf("DecodeEvent allocates %.1f per event, want <= 1 (the kind string)", n)
	}
}

// TestFrameReaderAllocs: steady-state framed reads reuse the internal
// frame buffer, so a probe event costs only its decoded strings.
func TestFrameReaderAllocs(t *testing.T) {
	const rounds = 1000
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf)
	ev := wireEvent()
	for i := 0; i < rounds+10; i++ {
		if err := fw.WriteEvent(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	fr, err := NewFrameReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fr.Next(); err != nil { // warm the frame buffer
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(rounds, func() {
		if _, err := fr.Next(); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Errorf("FrameReader.Next allocates %.1f per event, want <= 1 (the kind string)", n)
	}
}
