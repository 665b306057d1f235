package otrace_test

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"netprobe/internal/otrace"
)

func sampleEvents() []otrace.Event {
	return []otrace.Event{
		{Ev: otrace.KindRunStart, Name: "job-0", DeltaNs: 20_000_000,
			PayloadBytes: 32, WireBytes: 72, BottleneckBps: 1_000_000, Count: 3},
		{Ev: otrace.KindProbeSent, Seq: 0, T: 0},
		{Ev: otrace.KindRTT, Seq: 0, T: 21_000_000, RTTNs: 21_000_000},
		{Ev: otrace.KindProbeSent, Seq: 1, T: 20_000_000},
		{Ev: otrace.KindDrop, Seq: 1, T: 40_000_000, Queue: "q1", QLen: 7},
		{Ev: otrace.KindGap, Seq: 2, Count: 5, Fault: "blackhole"},
	}
}

// writeFrames writes evs to path as a framed stream, the way the
// coordinator's journal lays out its file.
func writeFrames(t *testing.T, path string, evs []otrace.Event) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	fw := otrace.NewFrameWriter(f)
	for _, ev := range evs {
		if err := fw.WriteEvent(ev); err != nil {
			t.Fatal(err)
		}
	}
	if got := fw.Events(); got != int64(len(evs)) {
		t.Fatalf("frame writer counted %d events, want %d", got, len(evs))
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func readAll(t *testing.T, path string) []otrace.Event {
	t.Helper()
	var got []otrace.Event
	if err := otrace.ReadFile(path, func(ev otrace.Event) error {
		got = append(got, ev)
		return nil
	}); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return got
}

// TestWireArchiveRoundTrip: a framed file (a journal's layout) leads
// with the wire magic, and ReadFile detects it by that magic and
// decodes the identical events.
func TestWireArchiveRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal")
	evs := sampleEvents()
	writeFrames(t, path, evs)

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data[:3]) != "OTR" {
		t.Fatalf("file starts %q, want the OTR magic", data[:4])
	}

	got := readAll(t, path)
	if !reflect.DeepEqual(got, evs) {
		t.Fatalf("round trip mismatch:\ngot  %+v\nwant %+v", got, evs)
	}
}

// TestWireArchiveTruncated: a framed file cut mid-frame (a journal
// abandoned by a crash) replays its whole frames through ReadFile and
// then fails with an error wrapping ErrTruncated, not a silent short
// read.
func TestWireArchiveTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal")
	writeFrames(t, path, sampleEvents())
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	n := 0
	err = otrace.ReadFile(path, func(otrace.Event) error { n++; return nil })
	if err == nil {
		t.Fatal("truncated archive read cleanly")
	}
	if !errors.Is(err, otrace.ErrTruncated) {
		t.Fatalf("error %v does not wrap ErrTruncated", err)
	}
	if n == 0 {
		t.Error("no events decoded before the truncation point")
	}
}
