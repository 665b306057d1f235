package source

import (
	"errors"
	"fmt"
	"time"

	"netprobe/internal/otrace"
	"netprobe/internal/pipestat"
)

// uplinkQueue is the capacity, in events, of the bounded queue an
// open-loop uplink puts in front of its Sender.
const uplinkQueue = 4096

// Uplink wires s as a producer's relay uplink and returns the sink to
// emit into and the closer to call once the producer is done. Every
// event is accounted on chain: produced at the returned sink, applied
// as "sender" (s.Sent), dropped as "sender" (s.Dropped) or, for
// open-loop producers, as "queue". The wire_sent stage tap sits
// directly in front of s, and s heartbeats every 2 s so the relay
// tracks the source's liveness between events.
//
// openLoop puts a bounded queue in front of s, so that a stalled relay
// drops events rather than delaying a live prober's pacing; closed-loop
// producers (simulations) write through. The closer drains the queue,
// closes s, and returns the stream's error, the queue's drops as an
// error, or nil when every event left.
func Uplink(chain *pipestat.Chain, s *Sender, openLoop bool) (otrace.Sink, func() error) {
	chain.Applied("sender", s.Sent)
	chain.Dropped("sender", s.Dropped)
	s.StartHeartbeats(2 * time.Second)
	next := chain.Stage(pipestat.StageWireSent, s)
	var q *otrace.Bounded
	if openLoop {
		q = otrace.NewBounded(next, uplinkQueue)
		chain.Dropped("queue", q.Dropped)
		next = q
	}
	closer := func() error {
		if q == nil {
			return s.Close()
		}
		q.Close() //nolint:errcheck // always nil
		err := s.Close()
		if d := q.Dropped(); d > 0 {
			err = errors.Join(err, fmt.Errorf("source: uplink queue dropped %d events", d))
		}
		return err
	}
	return chain.Produce(next), closer
}
