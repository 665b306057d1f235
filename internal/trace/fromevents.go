package trace

import (
	"fmt"
	"io"
	"os"
	"time"

	"netprobe/internal/core"
	"netprobe/internal/otrace"
)

// collector incrementally reconstructs a core.Trace from an otrace
// event stream: run_start supplies the metadata the CSV header
// carries, probe_sent supplies s_n, and rtt supplies r_n and rtt_n; a
// probe with no rtt event is lost (rtt_n = 0, the paper's convention).
// Feed it events in stream order with add, which stops at the first
// malformed one, and finish with trace.
type collector struct{ t *core.Trace }

// add feeds one event into the reconstruction. Events that carry no
// sample state (enqueue, drop, echo, job brackets, faults, gaps) are
// ignored.
func (c *collector) add(ev otrace.Event) error {
	switch ev.Ev {
	case otrace.KindRunStart:
		if c.t != nil {
			return fmt.Errorf("second run_start event")
		}
		c.t = &core.Trace{
			Name:          ev.Name,
			Delta:         time.Duration(ev.DeltaNs),
			PayloadSize:   ev.PayloadBytes,
			WireSize:      ev.WireBytes,
			BottleneckBps: ev.BottleneckBps,
			ClockRes:      time.Duration(ev.ClockResNs),
			Samples:       make([]core.Sample, ev.Count),
		}
		for i := range c.t.Samples {
			c.t.Samples[i] = core.Sample{Seq: i, Lost: true}
		}
	case otrace.KindProbeSent:
		s, err := c.sampleFor(ev)
		if err != nil {
			return err
		}
		s.Sent = time.Duration(ev.T)
	case otrace.KindRTT:
		s, err := c.sampleFor(ev)
		if err != nil {
			return err
		}
		s.Sent = time.Duration(ev.SentNs)
		s.Recv = time.Duration(ev.RecvNs)
		s.RTT = time.Duration(ev.RTTNs)
		s.Lost = false
	}
	return nil
}

func (c *collector) sampleFor(ev otrace.Event) (*core.Sample, error) {
	if c.t == nil {
		return nil, fmt.Errorf("%s event before run_start", ev.Ev)
	}
	if ev.Seq < 0 || ev.Seq >= len(c.t.Samples) {
		return nil, fmt.Errorf("%s event seq %d out of range [0, %d)", ev.Ev, ev.Seq, len(c.t.Samples))
	}
	return &c.t.Samples[ev.Seq], nil
}

// trace returns the validated reconstruction. It fails if no run_start
// was seen or the assembled trace does not validate.
func (c *collector) trace() (*core.Trace, error) {
	if c.t == nil {
		return nil, fmt.Errorf("trace: event stream has no run_start")
	}
	if err := c.t.Validate(); err != nil {
		return nil, err
	}
	return c.t, nil
}

// FromEvents reconstructs the core.Trace of one run from its otrace
// JSONL event stream via a collector. The result is validated, and for
// a simulator-produced stream it is sample-for-sample identical to the
// trace RunSim returned — every figure is re-derivable from the event
// file alone.
func FromEvents(r io.Reader) (*core.Trace, error) {
	var c collector
	if err := otrace.Read(r, c.add); err != nil {
		return nil, err
	}
	return c.trace()
}

// LoadEvents is FromEvents reading from a file.
func LoadEvents(path string) (*core.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	defer f.Close()
	return FromEvents(f)
}
