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
//
// The queue runs Lindley's recurrence: an admitted packet arriving at
// a_n departs at d_n = max(a_n, d_{n−1}) + S_n, computed on arrival
// and kept in a ring of departure records. The queue schedules no
// completion event. Its next departure waits in the Scheduler's
// departure heap with the seq a completion event would have had. The
// Scheduler hands the departure back in (at, seq) order among all
// events, and the queue then passes the packet on and starts the next
// service. So a packet costs one event per hop: its delivery over the
// Link behind the queue.
type Queue struct {
	// Name identifies the queue in instrumentation output.
	Name string

	sched     *Scheduler
	rate      int64 // service rate in bits per second
	limit     int   // buffer capacity in packets (waiting room)
	next      Receiver
	onDrop    DropFunc
	onEnqueue EnqueueFunc

	// The packets in the system are a FIFO ring of departure records,
	// grown on demand up to limit+1 slots: head indexes the one in
	// service.
	ring []record
	head int
	n    int

	// Counters, exported through Stats.
	arrived  int64
	served   int64
	dropped  int64
	busyTime time.Duration
}

// record is an admitted packet, its service time and the time it
// departs.
type record struct {
	pkt      *Packet
	svc, dep time.Duration
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
func (q *Queue) Len() int { return max(q.n-1, 0) }

// Busy reports whether a packet is currently in service.
func (q *Queue) Busy() bool { return q.n > 0 }

// Receive implements Receiver. If the server is idle the packet enters
// service immediately; otherwise it joins the buffer or, if the buffer
// is full, is dropped.
func (q *Queue) Receive(pkt *Packet) {
	q.arrived++
	now := q.sched.now
	if q.n > q.limit {
		q.dropped++
		if q.onDrop != nil {
			q.onDrop(pkt, now)
		}
		return
	}
	start := now
	if q.n > 0 {
		start = max(now, q.ring[q.slot(q.n-1)].dep)
	}
	svc := q.ServiceTime(pkt.Size)
	if q.n == len(q.ring) {
		q.grow()
	}
	q.ring[q.slot(q.n)] = record{pkt: pkt, svc: svc, dep: start + svc}
	q.n++
	if q.n == 1 {
		q.sched.depart(start+svc, q)
	}
	if q.onEnqueue != nil {
		q.onEnqueue(pkt, now, q.n)
	}
}

// depart finishes the service in progress, called by the Scheduler at
// its departure time: the packet leaves for the next element and the
// next one, if any, enters service. The leaving packet holds the
// server until it has been handed on, so a packet that comes back to
// this queue meanwhile waits behind the ones already waiting.
func (q *Queue) depart() {
	r := &q.ring[q.head]
	pkt := r.pkt
	r.pkt = nil
	q.served++
	q.busyTime += r.svc
	if q.next != nil {
		q.next.Receive(pkt)
	}
	q.head = q.slot(1)
	q.n--
	if q.n > 0 {
		q.sched.redepart(q.ring[q.head].dep)
	} else {
		q.sched.popDeparture()
	}
}

// slot is the ring index of the i-th packet in the system.
func (q *Queue) slot(i int) int {
	i += q.head
	if i >= len(q.ring) {
		i -= len(q.ring)
	}
	return i
}

// grow doubles the ring, capped at the buffer size plus the server, so
// a huge (ablation) buffer costs only what is actually used.
func (q *Queue) grow() {
	ring := make([]record, min(max(2*len(q.ring), 8), q.limit+1))
	for i := 0; i < q.n; i++ {
		ring[i] = q.ring[q.slot(i)]
	}
	q.ring, q.head = ring, 0
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
