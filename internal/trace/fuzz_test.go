package trace

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadCSV checks that arbitrary input never panics the parser and
// that anything it accepts survives a write/read round trip.
func FuzzReadCSV(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, sampleTrace()); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add("")
	f.Add("seq,sent_ns,recv_ns,rtt_ns,lost\n")
	f.Add("# name: x\nseq,sent_ns,recv_ns,rtt_ns,lost\n0,0,1,1,0\n")
	f.Add("# delta_ns: -5\nseq,sent_ns,recv_ns,rtt_ns,lost\n")
	f.Add("0,0,0,0,0\n")
	f.Add("# bottleneck_bps: 99999999999999999999\nseq,sent_ns,recv_ns,rtt_ns,lost\n")

	f.Fuzz(func(t *testing.T, input string) {
		tr, err := ReadCSV(strings.NewReader(input))
		if err != nil {
			return // rejection is fine; panics are not
		}
		var out bytes.Buffer
		if err := WriteCSV(&out, tr); err != nil {
			t.Fatalf("accepted trace failed to serialize: %v", err)
		}
		back, err := ReadCSV(&out)
		if err != nil {
			t.Fatalf("round trip of accepted trace failed: %v", err)
		}
		if len(back.Samples) != len(tr.Samples) {
			t.Fatalf("round trip changed sample count: %d vs %d",
				len(back.Samples), len(tr.Samples))
		}
	})
}
