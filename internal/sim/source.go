package sim

import (
	"fmt"
	"time"
)

// PeriodicSource emits fixed-size probe packets at a constant interval
// δ, reproducing the sending side of the NetDyn tool: the user
// specifies the number of packets, their size, and the interval
// between successive packets.
type PeriodicSource struct {
	sched   *Scheduler
	factory *Factory
	flow    string
	size    int
	delta   time.Duration
	count   int
	start   time.Duration
	next    Receiver
	onSend  func(seq int, at time.Duration)

	sent int
}

// NewPeriodicSource returns a source that will emit count packets of
// size bytes into next, one every delta, the first at virtual time
// start. Call Start to schedule the emissions.
func NewPeriodicSource(sched *Scheduler, factory *Factory, flow string, size int, delta time.Duration, count int, start time.Duration, next Receiver) *PeriodicSource {
	if delta <= 0 {
		panic(fmt.Sprintf("sim: periodic source %q: non-positive delta %v", flow, delta))
	}
	if size <= 0 {
		panic(fmt.Sprintf("sim: periodic source %q: non-positive size %d", flow, size))
	}
	return &PeriodicSource{
		sched:   sched,
		factory: factory,
		flow:    flow,
		size:    size,
		delta:   delta,
		count:   count,
		start:   start,
		next:    next,
	}
}

// OnSend registers fn to observe every emission (sequence number and
// send time). The probing experiment uses this to record s_n.
func (p *PeriodicSource) OnSend(fn func(seq int, at time.Duration)) { p.onSend = fn }

// Sent reports how many packets have been emitted so far.
func (p *PeriodicSource) Sent() int { return p.sent }

// Start schedules the first emission.
func (p *PeriodicSource) Start() {
	if p.count <= 0 {
		return
	}
	p.sched.schedule(p.start, p, nil)
}

// fire emits one probe and schedules the next emission.
func (p *PeriodicSource) fire(*Packet) {
	now := p.sched.Now()
	pkt := p.factory.New(p.flow, p.sent, p.size, now)
	pkt.Probe = true
	pkt.Dir = Forward
	if p.onSend != nil {
		p.onSend(pkt.Seq, now)
	}
	p.sent++
	if p.next != nil {
		p.next.Receive(pkt)
	}
	if p.sent < p.count {
		p.sched.schedule(now+p.delta, p, nil)
	}
}
