// Package sim implements a discrete-event, store-and-forward network
// simulator.
//
// The simulator is the substrate for reproducing the measurements in
// Bolot's SIGCOMM '93 study of end-to-end packet delay and loss: it
// plays the role the July-1992 Internet played in the paper. A network
// is assembled from small elements that each implement the Receiver
// interface — finite-buffer FIFO queues (Queue), propagation-delay
// links (Link), randomly lossy links (LossyLink), echo points (Echo)
// and sinks (Sink) — stitched into a pipeline. Packet sources
// (PeriodicSource and the generators in package traffic) inject
// packets, and a Scheduler advances virtual time from event to event.
//
// Virtual time is a time.Duration measured from the start of the
// simulation. All elements attached to a Scheduler must be driven from
// a single goroutine; the engine is deterministic given fixed seeds.
package sim

import (
	"fmt"
	"time"
)

// Receiver is implemented by every network element that can accept a
// packet. Elements forward packets to their downstream Receiver,
// forming a pipeline.
type Receiver interface {
	// Receive hands pkt to the element at the current virtual time.
	Receive(pkt *Packet)
}

// handler is what a scheduled event invokes. Link implements it
// itself, so a packet in flight is an event carrying the packet rather
// than a closure capturing it.
type handler interface {
	fire(pkt *Packet)
}

// funcHandler adapts the func() callbacks of At and After to handler.
// A func value is one pointer word, so the conversion to the interface
// allocates nothing.
type funcHandler func()

func (f funcHandler) fire(*Packet) { f() }

// event is a single scheduled callback, held by value in the heap.
type event struct {
	at  time.Duration
	seq uint64 // tie-break so equal-time events run in schedule order
	h   handler
	pkt *Packet // argument to h.fire; nil for func events
}

// earlier orders events by (at, seq). seq is unique per Scheduler, so
// the order is total and the pop sequence does not depend on the heap
// layout.
func earlier(a, b *event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// departure is a busy Queue's next departure. It takes its place in
// the (at, seq) order when the service it ends starts, exactly as a
// completion event would, but it is not an event: the Scheduler keeps
// departures in a heap of their own, one per busy queue, and hands
// each to its queue when the order reaches it.
type departure struct {
	at  time.Duration
	seq uint64
	q   *Queue
}

// before reports whether d comes before whatever is due at (at, seq).
func (d *departure) before(at time.Duration, seq uint64) bool {
	return d.at < at || (d.at == at && d.seq < seq)
}

// Scheduler owns virtual time and the pending event set, a binary
// min-heap of events ordered by (at, seq), merged in that order with
// the departures of busy queues, a second, much smaller heap. The zero
// value is ready to use.
type Scheduler struct {
	now        time.Duration
	seq        uint64
	pending    []event
	departures []departure
	stopped    bool
	executed   uint64
	maxPending int
}

// NewScheduler returns a Scheduler with virtual time zero.
func NewScheduler() *Scheduler { return &Scheduler{} }

// Now reports the current virtual time.
func (s *Scheduler) Now() time.Duration { return s.now }

// At schedules fn to run at virtual time at. Scheduling in the past is
// a programming error and panics: it would silently reorder causality.
func (s *Scheduler) At(at time.Duration, fn func()) { s.schedule(at, funcHandler(fn), nil) }

// After schedules fn to run d from now. Negative d panics via At.
func (s *Scheduler) After(d time.Duration, fn func()) { s.At(s.now+d, fn) }

// schedule is the one path every event enters the heap by.
func (s *Scheduler) schedule(at time.Duration, h handler, pkt *Packet) {
	if at < s.now {
		panic(fmt.Sprintf("sim: event scheduled at %v before now %v", at, s.now))
	}
	s.seq++
	s.push(event{at: at, seq: s.seq, h: h, pkt: pkt})
	s.maxPending = max(s.maxPending, s.Pending())
}

func (s *Scheduler) push(ev event) {
	h := append(s.pending, ev)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !earlier(&ev, &h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
	s.pending = h
}

// pop removes and returns the earliest event. The vacated slot is
// cleared so the heap's spare capacity does not keep packets alive.
func (s *Scheduler) pop() event {
	h := s.pending
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{}
	h = h[:n]
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if r := c + 1; r < n && earlier(&h[r], &h[c]) {
				c = r
			}
			if !earlier(&h[c], &last) {
				break
			}
			h[i] = h[c]
			i = c
		}
		h[i] = last
	}
	s.pending = h
	return top
}

// depart schedules q's next departure at time at, taking the next seq
// as a completion event scheduled now would. A queue has at most one
// departure pending.
func (s *Scheduler) depart(at time.Duration, q *Queue) {
	s.seq++
	d := departure{at: at, seq: s.seq, q: q}
	h := append(s.departures, d)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !d.before(h[p].at, h[p].seq) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = d
	s.departures = h
	s.maxPending = max(s.maxPending, s.Pending())
}

// popDeparture removes the earliest departure, the one being made,
// when its queue has emptied.
func (s *Scheduler) popDeparture() {
	h := s.departures
	n := len(h) - 1
	last := h[n]
	h[n] = departure{}
	s.departures = h[:n]
	if n > 0 {
		s.siftDeparture(last)
	}
}

// redepart replaces the earliest departure, the one being made, with
// its queue's next, at time at. The departure being made is still the
// earliest: whatever its queue's packet scheduled on its way out is
// due no earlier and has a larger seq.
func (s *Scheduler) redepart(at time.Duration) {
	s.seq++
	d := s.departures[0]
	d.at, d.seq = at, s.seq
	s.siftDeparture(d)
}

// siftDeparture places d at the root of the departure heap or below.
func (s *Scheduler) siftDeparture(d departure) {
	h := s.departures
	n := len(h)
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].before(h[c].at, h[c].seq) {
			c = r
		}
		if !h[c].before(d.at, d.seq) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = d
}

// Stop makes Run return after the currently executing event.
func (s *Scheduler) Stop() { s.stopped = true }

// Run executes events in time order until no events remain, the
// horizon is passed, or Stop is called. It returns the number of
// events executed. Events scheduled exactly at the horizon still run.
// The clock then advances to the horizon, unless Stop left an event at
// or before the horizon pending: it stays at the stopping event, so a
// later Run resumes without time going backwards.
//
// Queue departures are merged into the run in (at, seq) order. They
// move the clock and count as pending, but not as events executed.
func (s *Scheduler) Run(horizon time.Duration) int {
	s.stopped = false
	n := 0
	for !s.stopped {
		if len(s.departures) > 0 && (len(s.pending) == 0 || s.departures[0].before(s.pending[0].at, s.pending[0].seq)) {
			if s.departures[0].at > horizon {
				break
			}
			d := &s.departures[0]
			s.now = d.at
			d.q.depart()
			continue
		}
		if len(s.pending) == 0 || s.pending[0].at > horizon {
			break
		}
		ev := s.pop()
		s.now = ev.at
		ev.h.fire(ev.pkt)
		n++
	}
	s.executed += uint64(n)
	if s.now < horizon && !s.due(horizon) {
		s.now = horizon
	}
	return n
}

// due reports whether an event or departure at or before t is pending.
func (s *Scheduler) due(t time.Duration) bool {
	return len(s.pending) > 0 && s.pending[0].at <= t ||
		len(s.departures) > 0 && s.departures[0].at <= t
}

// Pending reports the number of events not yet executed, counting
// each busy queue's next departure as one.
func (s *Scheduler) Pending() int { return len(s.pending) + len(s.departures) }

// Executed reports the total number of events run across all Run
// calls — the engine's work counter for instrumentation. Queue
// departures are not events and are not counted.
func (s *Scheduler) Executed() uint64 { return s.executed }

// MaxPending reports the high-water mark of Pending: the largest
// number of events and departures that were ever pending at once. It
// bounds the engine's memory footprint and is exported to the metrics
// registry by instrumented runs.
func (s *Scheduler) MaxPending() int { return s.maxPending }
