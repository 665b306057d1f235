package sim

import (
	"fmt"
	"time"
)

// DropFunc observes a packet dropped by a network element at virtual
// time now.
type DropFunc func(pkt *Packet, now time.Duration)

// EnqueueFunc observes a packet accepted by a queue — entering
// service or the waiting room — at virtual time now, with qlen
// packets in the system including the one in service.
type EnqueueFunc func(pkt *Packet, now time.Duration, qlen int)

// Queue is a single-server FIFO queue with a finite buffer and a
// fixed-rate transmitter — the model of a router output port used
// throughout the paper (Figure 3). Arriving packets that find the
// buffer full are dropped. The packet in service does not occupy a
// buffer slot, matching the classic single-server queue with K waiting
// positions.
type Queue struct {
	// Name identifies the queue in instrumentation output.
	Name string

	sched     *Scheduler
	rate      int64 // service rate in bits per second
	limit     int   // buffer capacity in packets (waiting room)
	next      Receiver
	onDrop    DropFunc
	onEnqueue EnqueueFunc

	busy bool
	// The waiting room is a FIFO ring, grown on demand up to limit
	// slots: head indexes the oldest of the n waiting packets.
	ring []*Packet
	head int
	n    int

	// Counters, exported through Stats.
	arrived  int64
	served   int64
	dropped  int64
	busyTime time.Duration
	lastBusy time.Duration // service start of packet in service
}

// NewQueue returns a queue serving at rateBps bits per second with
// buffer waiting positions, forwarding served packets to next.
// rateBps and buffer must be positive.
func NewQueue(sched *Scheduler, name string, rateBps int64, buffer int, next Receiver) *Queue {
	if rateBps <= 0 {
		panic(fmt.Sprintf("sim: queue %q: non-positive rate %d", name, rateBps))
	}
	if buffer <= 0 {
		panic(fmt.Sprintf("sim: queue %q: non-positive buffer %d", name, buffer))
	}
	return &Queue{
		Name:  name,
		sched: sched,
		rate:  rateBps,
		limit: buffer,
		next:  next,
	}
}

// OnDrop registers fn to observe every packet the queue drops.
func (q *Queue) OnDrop(fn DropFunc) { q.onDrop = fn }

// OnEnqueue registers fn to observe every packet the queue accepts.
// Observation is strictly read-only instrumentation: fn runs after
// the queue's state is updated and must not inject traffic.
func (q *Queue) OnEnqueue(fn EnqueueFunc) { q.onEnqueue = fn }

// SetNext replaces the downstream receiver. Useful when wiring cycles
// (e.g. attaching the return path after the forward path is built).
func (q *Queue) SetNext(next Receiver) { q.next = next }

// Rate reports the configured service rate in bits per second.
func (q *Queue) Rate() int64 { return q.rate }

// ServiceTime reports how long a packet of size bytes occupies the
// transmitter.
func (q *Queue) ServiceTime(size int) time.Duration {
	return time.Duration(int64(size) * 8 * int64(time.Second) / q.rate)
}

// Len reports the number of packets waiting (excluding the one in
// service).
func (q *Queue) Len() int { return q.n }

// Busy reports whether a packet is currently in service.
func (q *Queue) Busy() bool { return q.busy }

// Receive implements Receiver. If the server is idle the packet enters
// service immediately; otherwise it joins the buffer or, if the buffer
// is full, is dropped.
func (q *Queue) Receive(pkt *Packet) {
	q.arrived++
	if !q.busy {
		q.startService(pkt)
		if q.onEnqueue != nil {
			q.onEnqueue(pkt, q.sched.Now(), 1)
		}
		return
	}
	if q.n >= q.limit {
		q.dropped++
		if q.onDrop != nil {
			q.onDrop(pkt, q.sched.Now())
		}
		return
	}
	q.enqueue(pkt)
	if q.onEnqueue != nil {
		q.onEnqueue(pkt, q.sched.Now(), q.n+1)
	}
}

func (q *Queue) enqueue(pkt *Packet) {
	if q.n == len(q.ring) {
		// Grow by doubling, capped at the buffer size, so a huge
		// (ablation) buffer costs only what is actually used.
		ring := make([]*Packet, min(max(2*len(q.ring), 8), q.limit))
		for i := 0; i < q.n; i++ {
			ring[i] = q.ring[(q.head+i)%len(q.ring)]
		}
		q.ring, q.head = ring, 0
	}
	i := q.head + q.n
	if i >= len(q.ring) {
		i -= len(q.ring)
	}
	q.ring[i] = pkt
	q.n++
}

func (q *Queue) dequeue() *Packet {
	pkt := q.ring[q.head]
	q.ring[q.head] = nil
	q.head++
	if q.head == len(q.ring) {
		q.head = 0
	}
	q.n--
	return pkt
}

func (q *Queue) startService(pkt *Packet) {
	q.busy = true
	q.lastBusy = q.sched.Now()
	q.sched.schedule(q.lastBusy+q.ServiceTime(pkt.Size), q, pkt)
}

// fire finishes the service of pkt: it leaves for the next element and
// the head of the waiting room, if any, enters service.
func (q *Queue) fire(pkt *Packet) {
	q.served++
	q.busyTime += q.sched.Now() - q.lastBusy
	if q.next != nil {
		q.next.Receive(pkt)
	}
	if q.n > 0 {
		q.startService(q.dequeue())
		return
	}
	q.busy = false
}

// QueueStats is a snapshot of a queue's counters.
type QueueStats struct {
	Name        string
	Arrived     int64
	Served      int64
	Dropped     int64
	Utilization float64 // fraction of elapsed virtual time the server was busy
}

// Stats returns a snapshot of the queue counters. elapsed should be
// the virtual time over which utilization is measured.
func (q *Queue) Stats(elapsed time.Duration) QueueStats {
	util := 0.0
	if elapsed > 0 {
		util = float64(q.busyTime) / float64(elapsed)
	}
	return QueueStats{
		Name:        q.Name,
		Arrived:     q.arrived,
		Served:      q.served,
		Dropped:     q.dropped,
		Utilization: util,
	}
}
