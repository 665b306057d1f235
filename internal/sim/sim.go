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

// handler is what a scheduled event invokes. Link and Queue implement
// it themselves, so a packet in flight or in service is an event
// carrying the packet rather than a closure capturing it.
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

// Scheduler owns virtual time and the pending event set, a binary
// min-heap of events ordered by (at, seq). The zero value is ready to
// use.
type Scheduler struct {
	now        time.Duration
	seq        uint64
	pending    []event
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
	if len(s.pending) > s.maxPending {
		s.maxPending = len(s.pending)
	}
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

// Stop makes Run return after the currently executing event.
func (s *Scheduler) Stop() { s.stopped = true }

// Run executes events in time order until no events remain, the
// horizon is passed, or Stop is called. It returns the number of
// events executed. Events scheduled exactly at the horizon still run.
// The clock then advances to the horizon, unless Stop left an event at
// or before the horizon pending: it stays at the stopping event, so a
// later Run resumes without time going backwards.
func (s *Scheduler) Run(horizon time.Duration) int {
	s.stopped = false
	n := 0
	for len(s.pending) > 0 && !s.stopped && s.pending[0].at <= horizon {
		ev := s.pop()
		s.now = ev.at
		ev.h.fire(ev.pkt)
		n++
	}
	s.executed += uint64(n)
	if s.now < horizon && (len(s.pending) == 0 || s.pending[0].at > horizon) {
		s.now = horizon
	}
	return n
}

// Pending reports the number of events not yet executed.
func (s *Scheduler) Pending() int { return len(s.pending) }

// Executed reports the total number of events run across all Run
// calls — the engine's work counter for instrumentation.
func (s *Scheduler) Executed() uint64 { return s.executed }

// MaxPending reports the high-water mark of the event heap: the
// largest number of events that were ever pending at once. It bounds
// the engine's memory footprint and is exported to the metrics
// registry by instrumented runs.
func (s *Scheduler) MaxPending() int { return s.maxPending }
