package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"netprobe/internal/clock"
	"netprobe/internal/core"
)

func sampleTrace() *core.Trace {
	t := &core.Trace{
		Name:          "INRIA-UMd δ=50ms",
		Delta:         50 * time.Millisecond,
		PayloadSize:   32,
		WireSize:      72,
		BottleneckBps: 128_000,
		ClockRes:      clock.DECstationResolution,
	}
	for i := 0; i < 5; i++ {
		s := core.Sample{Seq: i, Sent: time.Duration(i) * t.Delta}
		if i == 2 {
			s.Lost = true
		} else {
			s.RTT = clock.Quantize(140*time.Millisecond+time.Duration(i)*7*time.Millisecond, t.ClockRes)
			s.Recv = s.Sent + s.RTT
		}
		t.Samples = append(t.Samples, s)
	}
	return t
}

func TestCSVRoundTrip(t *testing.T) {
	orig := sampleTrace()
	var buf bytes.Buffer
	if err := WriteCSV(&buf, orig); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertTracesEqual(t, orig, got)
}

func assertTracesEqual(t *testing.T, a, b *core.Trace) {
	t.Helper()
	if a.Name != b.Name || a.Delta != b.Delta || a.PayloadSize != b.PayloadSize ||
		a.WireSize != b.WireSize || a.BottleneckBps != b.BottleneckBps || a.ClockRes != b.ClockRes {
		t.Fatalf("metadata differs:\n%+v\n%+v", a, b)
	}
	if len(a.Samples) != len(b.Samples) {
		t.Fatalf("sample counts differ: %d vs %d", len(a.Samples), len(b.Samples))
	}
	for i := range a.Samples {
		if a.Samples[i] != b.Samples[i] {
			t.Fatalf("sample %d differs: %+v vs %+v", i, a.Samples[i], b.Samples[i])
		}
	}
}

func TestCSVHumanReadable(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, sampleTrace()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"# name: INRIA-UMd", "# delta_ns: 50000000", "seq,sent_ns,recv_ns,rtt_ns,lost"} {
		if !strings.Contains(out, want) {
			t.Fatalf("CSV missing %q:\n%s", want, out)
		}
	}
}

func TestReadCSVRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"no header":  "1,2,3,4,0\n",
		"bad header": "a,b,c\n1,2,3,4,0\n",
		"bad row":    "seq,sent_ns,recv_ns,rtt_ns,lost\n1,2,3\n",
		"bad int":    "seq,sent_ns,recv_ns,rtt_ns,lost\nx,2,3,4,0\n",
		"bad meta":   "# delta_ns: abc\nseq,sent_ns,recv_ns,rtt_ns,lost\n",
		"invalid":    "# delta_ns: 1000000\n# wire_bytes: 72\nseq,sent_ns,recv_ns,rtt_ns,lost\n5,0,1,1,0\n",
	}
	for name, in := range cases {
		if _, err := ReadCSV(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestReadCSVIgnoresFreeComments(t *testing.T) {
	in := "# a free-form comment without colon-value\n" +
		"# delta_ns: 1000000\n# wire_bytes: 72\n# payload_bytes: 32\n" +
		"seq,sent_ns,recv_ns,rtt_ns,lost\n0,0,1000,1000,0\n"
	tr, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 1 {
		t.Fatalf("len = %d", tr.Len())
	}
}

func TestSaveLoadByExtension(t *testing.T) {
	dir := t.TempDir()
	orig := sampleTrace()
	// Every extension but .json holds CSV.
	for _, name := range []string{"t.csv", "t.txt"} {
		path := filepath.Join(dir, name)
		if err := Save(path, orig); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := Load(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		assertTracesEqual(t, orig, got)
	}
}

// TestSaveLoadRejectJSON: a .json path is refused by both Save and
// Load, and Save creates no file, rather than CSV under a JSON name.
func TestSaveLoadRejectJSON(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"t.json", "T.JSON"} {
		path := filepath.Join(dir, name)
		err := Save(path, sampleTrace())
		if err == nil || !strings.Contains(err.Error(), "CSV") {
			t.Fatalf("Save(%s) = %v, want an error pointing to CSV", name, err)
		}
		if _, serr := os.Stat(path); !os.IsNotExist(serr) {
			t.Fatalf("Save(%s) created the file (stat: %v)", name, serr)
		}
		if err := os.WriteFile(path, []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(path); err == nil || !strings.Contains(err.Error(), "-trace") {
			t.Fatalf("Load(%s) = %v, want an error pointing to -trace", name, err)
		}
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "absent.csv")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestMergeRenumbersAndOffsets(t *testing.T) {
	a := sampleTrace()
	b := sampleTrace()
	m, err := Merge("merged", a, b)
	if err != nil {
		t.Fatal(err)
	}
	if m.Len() != 10 {
		t.Fatalf("merged length %d, want 10", m.Len())
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("merged trace invalid: %v", err)
	}
	// Second half send times continue after the first half.
	if m.Samples[5].Sent <= m.Samples[4].Sent {
		t.Fatalf("offsets wrong: %v then %v", m.Samples[4].Sent, m.Samples[5].Sent)
	}
	// Lost samples preserved.
	if !m.Samples[2].Lost || !m.Samples[7].Lost {
		t.Fatal("lost markers lost in merge")
	}
}

func TestMergeRejectsMismatchedParams(t *testing.T) {
	a := sampleTrace()
	b := sampleTrace()
	b.Delta = time.Second
	if _, err := Merge("m", a, b); err == nil {
		t.Fatal("mismatched delta accepted")
	}
	if _, err := Merge("m"); err == nil {
		t.Fatal("empty merge accepted")
	}
}

func TestRoundTripSimulatedTrace(t *testing.T) {
	tr, err := core.INRIAUMd(50*time.Millisecond, 30*time.Second, 8)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sim.csv")
	if err := Save(path, tr); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	assertTracesEqual(t, tr, got)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() == 0 {
		t.Fatal("empty file")
	}
}
