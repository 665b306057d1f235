package otrace

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// sampleTrace builds a small but realistic event stream and returns it
// encoded both as plain JSONL and as a framed stream, plus the events.
func sampleTrace(t testing.TB) (events []Event, plain, wire []byte) {
	t.Helper()
	events = []Event{
		{Ev: KindRunStart, Seq: -1, Name: "trunc δ=50ms", DeltaNs: 50e6, Count: 3},
		{T: 0, Ev: KindProbeSent, Seq: 0, Flow: "probe"},
		{T: 1e6, Ev: KindFault, Seq: 0, Fault: "delay", DurNs: 5e6},
		{T: 140e6, Ev: KindRTT, Seq: 0, SentNs: 0, RecvNs: 140e6, RTTNs: 140e6},
		{T: 50e6, Ev: KindProbeSent, Seq: 1, Flow: "probe"},
		{T: 50e6, Ev: KindFault, Seq: 1, Fault: "drop"},
		{T: 100e6, Ev: KindGap, Seq: 2, Probes: 1, DurNs: 50e6},
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, ev := range events {
		w.Emit(ev)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	plain = append([]byte(nil), buf.Bytes()...)
	return events, plain, frameStream(t, events)
}

// readAll collects the events Read delivers and the terminal error.
func readAll(data []byte) ([]Event, error) {
	var got []Event
	err := Read(bytes.NewReader(data), func(ev Event) error {
		got = append(got, ev)
		return nil
	})
	return got, err
}

func TestReadTruncatedPlain(t *testing.T) {
	events, plain, _ := sampleTrace(t)
	// A plain JSONL file cut mid-line returns the full lines before the
	// cut plus ErrTruncated; cut at a line boundary it reads cleanly.
	for cut := 1; cut < len(plain); cut++ {
		got, err := readAll(plain[:cut])
		atBoundary := plain[cut-1] == '\n'
		if atBoundary {
			if err != nil {
				t.Fatalf("cut=%d (boundary): unexpected error %v", cut, err)
			}
		} else if err != nil && !errors.Is(err, ErrTruncated) {
			t.Fatalf("cut=%d: error %v does not wrap ErrTruncated", cut, err)
		}
		for i, ev := range got {
			if ev != events[i] {
				t.Fatalf("cut=%d: event %d = %+v, want %+v", cut, i, ev, events[i])
			}
		}
	}
}

func TestReadFileTruncatedKeepsSentinel(t *testing.T) {
	// ReadFile wraps errors with the path; errors.Is must still see
	// through to ErrTruncated.
	_, plain, _ := sampleTrace(t)
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	// Two bytes short of the end cuts the last record mid-line.
	if err := os.WriteFile(path, plain[:len(plain)-2], 0o644); err != nil {
		t.Fatal(err)
	}
	err := ReadFile(path, func(Event) error { return nil })
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("ReadFile error %v does not wrap ErrTruncated", err)
	}
}

func FuzzReadCorrupted(f *testing.F) {
	_, plain, wire := sampleTrace(f)
	f.Add(plain, 0, byte(0))
	f.Add(wire, 0, byte(0))
	f.Add(wire, len(wire)/2, byte(0xff))
	f.Add(plain, len(plain)/3, byte('{'))
	f.Add([]byte("{\"t\":1"), 0, byte(0))
	f.Add([]byte("OTR9"), 0, byte(0)) // unknown frame version: read as JSONL
	events, _, _ := sampleTrace(f)
	f.Fuzz(func(t *testing.T, data []byte, flip int, b byte) {
		if flip >= 0 && flip < len(data) {
			data = append([]byte(nil), data...)
			data[flip] ^= b
		}
		// Whatever the corruption, Read must not panic, must deliver a
		// prefix of valid events when the stream starts out well-formed,
		// and must report anything else as a wrapped ErrTruncated.
		got, err := readAll(data)
		if err != nil && !errors.Is(err, ErrTruncated) {
			t.Fatalf("error %v does not wrap ErrTruncated", err)
		}
		if bytes.Equal(data, plain) || bytes.Equal(data, wire) {
			if err != nil || len(got) != len(events) {
				t.Fatalf("uncorrupted stream: got %d events, err=%v", len(got), err)
			}
		}
	})
}
