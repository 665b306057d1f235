// Package trace persists probe traces (package core) as CSV files, so
// experiments can be collected once and analyzed many times — the
// workflow of the paper, where each 10-minute run was saved and then
// studied through several lenses. CSV is an export: a run's full
// record is its otrace JSONL event file, which FromEvents and
// LoadEvents turn back into the same trace.
//
// The CSV format is one row per probe with a small metadata header in
// comment lines:
//
//	# name: INRIA-UMd δ=50ms
//	# delta_ns: 50000000
//	# payload_bytes: 32
//	# wire_bytes: 72
//	# bottleneck_bps: 128000
//	# clock_res_ns: 3906250
//	seq,sent_ns,recv_ns,rtt_ns,lost
//	0,0,140625000,140625000,0
//	...
package trace

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"netprobe/internal/core"
)

// WriteCSV writes t to w in the package CSV format.
func WriteCSV(w io.Writer, t *core.Trace) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# name: %s\n", t.Name)
	fmt.Fprintf(bw, "# delta_ns: %d\n", t.Delta.Nanoseconds())
	fmt.Fprintf(bw, "# payload_bytes: %d\n", t.PayloadSize)
	fmt.Fprintf(bw, "# wire_bytes: %d\n", t.WireSize)
	fmt.Fprintf(bw, "# bottleneck_bps: %d\n", t.BottleneckBps)
	fmt.Fprintf(bw, "# clock_res_ns: %d\n", t.ClockRes.Nanoseconds())
	fmt.Fprintln(bw, "seq,sent_ns,recv_ns,rtt_ns,lost")
	for _, s := range t.Samples {
		lost := 0
		if s.Lost {
			lost = 1
		}
		fmt.Fprintf(bw, "%d,%d,%d,%d,%d\n",
			s.Seq, s.Sent.Nanoseconds(), s.Recv.Nanoseconds(), s.RTT.Nanoseconds(), lost)
	}
	return bw.Flush()
}

// ReadCSV parses a trace in the package CSV format. The result is
// validated before being returned.
func ReadCSV(r io.Reader) (*core.Trace, error) {
	t := &core.Trace{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	sawHeader := false
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, "#") {
			if err := parseMeta(t, text); err != nil {
				return nil, fmt.Errorf("trace: line %d: %w", line, err)
			}
			continue
		}
		if !sawHeader {
			if text != "seq,sent_ns,recv_ns,rtt_ns,lost" {
				return nil, fmt.Errorf("trace: line %d: unexpected header %q", line, text)
			}
			sawHeader = true
			continue
		}
		s, err := parseRow(text)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		t.Samples = append(t.Samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: read: %w", err)
	}
	if !sawHeader {
		return nil, fmt.Errorf("trace: missing column header")
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

func parseMeta(t *core.Trace, text string) error {
	body := strings.TrimSpace(strings.TrimPrefix(text, "#"))
	key, val, ok := strings.Cut(body, ":")
	if !ok {
		return nil // free-form comment
	}
	key = strings.TrimSpace(key)
	val = strings.TrimSpace(val)
	switch key {
	case "name":
		t.Name = val
		return nil
	}
	n, err := strconv.ParseInt(val, 10, 64)
	if err != nil {
		return fmt.Errorf("metadata %q: %w", key, err)
	}
	switch key {
	case "delta_ns":
		t.Delta = time.Duration(n)
	case "payload_bytes":
		t.PayloadSize = int(n)
	case "wire_bytes":
		t.WireSize = int(n)
	case "bottleneck_bps":
		t.BottleneckBps = n
	case "clock_res_ns":
		t.ClockRes = time.Duration(n)
	}
	return nil
}

func parseRow(text string) (core.Sample, error) {
	var s core.Sample
	fields := strings.Split(text, ",")
	if len(fields) != 5 {
		return s, fmt.Errorf("want 5 fields, got %d", len(fields))
	}
	vals := make([]int64, 5)
	for i, f := range fields {
		n, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
		if err != nil {
			return s, fmt.Errorf("field %d: %w", i, err)
		}
		vals[i] = n
	}
	s.Seq = int(vals[0])
	s.Sent = time.Duration(vals[1])
	s.Recv = time.Duration(vals[2])
	s.RTT = time.Duration(vals[3])
	s.Lost = vals[4] != 0
	return s, nil
}

// Save writes t to path as CSV. A ".json" path is an error: CSV is the
// only trace file format, and a run's JSON record is its otrace event
// file.
func Save(path string, t *core.Trace) error {
	if err := notJSON(path); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	defer f.Close()
	if err := WriteCSV(f, t); err != nil {
		return err
	}
	return f.Close()
}

// Load reads a CSV trace from path. A ".json" path is an error, as
// for Save.
func Load(path string) (*core.Trace, error) {
	if err := notJSON(path); err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	defer f.Close()
	return ReadCSV(f)
}

// notJSON rejects a ".json" trace path, which would otherwise hold CSV
// under a JSON name.
func notJSON(path string) error {
	if strings.EqualFold(filepath.Ext(path), ".json") {
		return fmt.Errorf("trace: %s: traces are CSV files (name it .csv); "+
			"a run's JSON record is its otrace JSONL event file "+
			"(-trace, -trace-dir), which trace.LoadEvents reads", path)
	}
	return nil
}

// Merge concatenates traces taken back to back with identical
// parameters (delta, sizes) into one longer trace, renumbering
// sequence numbers and offsetting send/receive times so they remain
// non-decreasing. It returns an error if parameters differ.
func Merge(name string, traces ...*core.Trace) (*core.Trace, error) {
	if len(traces) == 0 {
		return nil, fmt.Errorf("trace: nothing to merge")
	}
	first := traces[0]
	out := &core.Trace{
		Name:          name,
		Delta:         first.Delta,
		PayloadSize:   first.PayloadSize,
		WireSize:      first.WireSize,
		BottleneckBps: first.BottleneckBps,
		ClockRes:      first.ClockRes,
	}
	var offset time.Duration
	for i, tr := range traces {
		if tr.Delta != first.Delta || tr.WireSize != first.WireSize {
			return nil, fmt.Errorf("trace: merge: trace %d parameters differ", i)
		}
		for _, s := range tr.Samples {
			ns := s
			ns.Seq = len(out.Samples)
			ns.Sent += offset
			if !ns.Lost {
				ns.Recv += offset
			}
			out.Samples = append(out.Samples, ns)
		}
		if n := len(tr.Samples); n > 0 {
			offset += tr.Samples[n-1].Sent + tr.Delta
		}
	}
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return out, nil
}
