package sim

import (
	"fmt"
	"math/rand"
	"time"
)

// Link models pure propagation delay: every packet is delivered to the
// downstream receiver exactly Delay later. Links have no bandwidth
// limit and never reorder (FIFO delivery is guaranteed by the
// scheduler's stable event ordering).
type Link struct {
	sched *Scheduler
	delay time.Duration
	next  Receiver
}

// NewLink returns a link with the given one-way propagation delay.
func NewLink(sched *Scheduler, delay time.Duration, next Receiver) *Link {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative link delay %v", delay))
	}
	return &Link{sched: sched, delay: delay, next: next}
}

// SetNext replaces the downstream receiver.
func (l *Link) SetNext(next Receiver) { l.next = next }

// Delay reports the configured propagation delay.
func (l *Link) Delay() time.Duration { return l.delay }

// SetDelay changes the propagation delay for subsequently received
// packets. Used to model route changes: the paper's companion work
// ([21]) observes step changes in round-trip delay when routes move.
// A packet still waiting in a queue in front of the link enters it,
// and so takes the new delay, when it departs. Packets already in
// flight keep their old delay, so a decrease can transiently reorder
// packets — exactly as a real route change can.
func (l *Link) SetDelay(d time.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative link delay %v", d))
	}
	l.delay = d
}

// Receive implements Receiver.
func (l *Link) Receive(pkt *Packet) { l.sched.schedule(l.sched.now+l.delay, l, pkt) }

// fire delivers pkt at the end of its propagation delay.
func (l *Link) fire(pkt *Packet) {
	if l.next != nil {
		l.next.Receive(pkt)
	}
}

// LossyLink drops each packet independently with probability P and
// otherwise forwards it with zero delay. It models the randomly
// faulty interface cards reported for SURAnet in the paper (packet
// drop rates up to 3 %), which contribute the random component of the
// stationary ~10 % probe loss.
//
// Behind a Queue, a packet reaches the link when it departs, so its
// draw and any drop report happen at the packet's departure instant
// (now in the DropFunc), in departure order.
type LossyLink struct {
	// Name identifies the element in instrumentation output.
	Name string

	p      float64
	rng    *rand.Rand
	next   Receiver
	onDrop DropFunc
	sched  *Scheduler

	dropped int64
	passed  int64
}

// NewLossyLink returns a link dropping packets i.i.d. with probability
// p in [0, 1].
func NewLossyLink(sched *Scheduler, name string, p float64, seed int64, next Receiver) *LossyLink {
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("sim: lossy link %q: probability %v out of [0,1]", name, p))
	}
	return &LossyLink{
		Name:  name,
		p:     p,
		rng:   rand.New(rand.NewSource(seed)),
		next:  next,
		sched: sched,
	}
}

// OnDrop registers fn to observe every packet the link drops.
func (l *LossyLink) OnDrop(fn DropFunc) { l.onDrop = fn }

// SetNext replaces the downstream receiver.
func (l *LossyLink) SetNext(next Receiver) { l.next = next }

// Dropped reports how many packets the link has discarded.
func (l *LossyLink) Dropped() int64 { return l.dropped }

// Receive implements Receiver.
func (l *LossyLink) Receive(pkt *Packet) {
	if l.rng.Float64() < l.p {
		l.dropped++
		if l.onDrop != nil {
			l.onDrop(pkt, l.sched.Now())
		}
		return
	}
	l.passed++
	if l.next != nil {
		l.next.Receive(pkt)
	}
}
