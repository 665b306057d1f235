package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// refQueue is the two-event Queue this package had before queues ran
// Lindley's recurrence, kept as a test oracle: each packet entering
// service schedules a completion event, which hands the packet on and
// starts the next service.
type refQueue struct {
	Name string

	sched     *Scheduler
	rate      int64
	limit     int
	next      Receiver
	onDrop    DropFunc
	onEnqueue EnqueueFunc

	busy      bool
	ring      []*Packet
	head      int
	n         int
	inService *Packet
	complete  func()

	arrived  int64
	served   int64
	dropped  int64
	busyTime time.Duration
	lastBusy time.Duration
}

func newRefQueue(sched *Scheduler, name string, rateBps int64, buffer int, next Receiver) *refQueue {
	q := &refQueue{Name: name, sched: sched, rate: rateBps, limit: buffer, next: next}
	q.complete = q.fire
	return q
}

func (q *refQueue) ServiceTime(size int) time.Duration {
	return time.Duration(int64(size) * 8 * int64(time.Second) / q.rate)
}

func (q *refQueue) Len() int { return q.n }

func (q *refQueue) Busy() bool { return q.busy }

func (q *refQueue) Receive(pkt *Packet) {
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

func (q *refQueue) enqueue(pkt *Packet) {
	if q.n == len(q.ring) {
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

func (q *refQueue) dequeue() *Packet {
	pkt := q.ring[q.head]
	q.ring[q.head] = nil
	q.head++
	if q.head == len(q.ring) {
		q.head = 0
	}
	q.n--
	return pkt
}

func (q *refQueue) startService(pkt *Packet) {
	q.busy = true
	q.lastBusy = q.sched.Now()
	q.inService = pkt
	q.sched.At(q.lastBusy+q.ServiceTime(pkt.Size), q.complete)
}

func (q *refQueue) fire() {
	pkt := q.inService
	q.inService = nil
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

func (q *refQueue) Stats(elapsed time.Duration) QueueStats {
	util := 0.0
	if elapsed > 0 {
		util = float64(q.busyTime) / float64(elapsed)
	}
	return QueueStats{Name: q.Name, Arrived: q.arrived, Served: q.served, Dropped: q.dropped, Utilization: util}
}

// anyQueue is what the reference pipelines need of either queue.
type anyQueue interface {
	Receiver
	Len() int
	Busy() bool
	Stats(elapsed time.Duration) QueueStats
}

// refHop is one stage of a reference pipeline: a queue, then
// optionally a lossy link, then optionally a propagation link.
type refHop struct {
	rate   int64
	buffer int
	loss   float64 // lossy link drop probability; < 0 for none
	link   bool
	delay  time.Duration
}

// refEmission is one packet a source injects at a hop's queue.
type refEmission struct {
	at    time.Duration
	hop   int
	size  int
	probe bool
}

type refDelayChange struct {
	at    time.Duration
	hop   int
	delay time.Duration
}

// refSpec is a random pipeline: hops in a chain ending in a sink, an
// echo point after hop echo (if ≥ 0) that turns probes back into the
// rest of the chain and absorbs everything else, packet emissions,
// link delay changes, a monitored queue, and a run split in two with
// one packet injected between the Runs.
type refSpec struct {
	hops      []refHop
	echo      int
	emissions []refEmission
	changes   []refDelayChange
	monitor   int
	every     time.Duration
	split     time.Duration
	horizon   time.Duration
}

// randomSpec draws a pipeline whose times are whole or half
// milliseconds, so that arrivals, departures, link deliveries, delay
// changes and monitor samples often fall on the same nanosecond:
// rates are multiples of 1 byte/ms, sizes multiples of 4 bytes, and
// link delays and source gaps whole milliseconds, often equal to a
// service time. stretch multiplies the number of packets, delay
// changes and the length of the run; the hops are the same for every
// stretch.
func randomSpec(rng *rand.Rand, stretch int) refSpec {
	sp := refSpec{echo: -1}
	nh := 1 + rng.Intn(4)
	for i := 0; i < nh; i++ {
		h := refHop{
			rate:   8000 * int64(1<<rng.Intn(3)),
			buffer: 1 + rng.Intn(6),
			loss:   -1,
			link:   rng.Intn(4) != 0,
			delay:  time.Duration(rng.Intn(5)) * time.Millisecond,
		}
		if rng.Intn(3) == 0 {
			h.loss = []float64{0, 0.3, 1}[rng.Intn(3)]
		}
		sp.hops = append(sp.hops, h)
	}
	if nh > 1 && rng.Intn(2) == 0 {
		sp.echo = rng.Intn(nh - 1)
	}
	for ns := 1 + rng.Intn(3); ns > 0; ns-- {
		hop := rng.Intn(nh)
		if sp.echo >= 0 && rng.Intn(2) == 0 {
			hop = 0
		}
		size := 4 * (1 + rng.Intn(4))
		probe := rng.Intn(2) == 0
		at := time.Duration(rng.Intn(5)) * time.Millisecond
		switch rng.Intn(3) {
		case 0: // periodic, often at the service time of its hop
			gap := time.Duration(1+rng.Intn(4)) * time.Millisecond
			if rng.Intn(2) == 0 {
				gap = time.Duration(int64(size) * 8 * int64(time.Second) / sp.hops[hop].rate)
			}
			for k := (20 + rng.Intn(40)) * stretch; k > 0; k-- {
				sp.emissions = append(sp.emissions, refEmission{at, hop, size, probe})
				at += gap
			}
		case 1: // same-size back-to-back trains
			for k := (3 + rng.Intn(6)) * stretch; k > 0; k-- {
				for b := 1 + rng.Intn(5); b > 0; b-- {
					sp.emissions = append(sp.emissions, refEmission{at, hop, size, probe})
				}
				at += time.Duration(rng.Intn(12)) * time.Millisecond
			}
		default: // random gaps and sizes
			for k := (20 + rng.Intn(40)) * stretch; k > 0; k-- {
				sp.emissions = append(sp.emissions, refEmission{at, hop, 4 * (1 + rng.Intn(4)), rng.Intn(2) == 0})
				at += time.Duration(rng.Intn(4)) * time.Millisecond / 2
			}
		}
	}
	for k := rng.Intn(4) * stretch; k > 0; k-- {
		sp.changes = append(sp.changes, refDelayChange{
			at:    time.Duration(rng.Intn(60*stretch)) * time.Millisecond,
			hop:   rng.Intn(nh),
			delay: time.Duration(rng.Intn(6)) * time.Millisecond,
		})
	}
	sp.monitor = rng.Intn(nh)
	sp.every = time.Duration(1+rng.Intn(3)) * time.Millisecond
	sp.horizon = time.Duration((40+rng.Intn(80))*stretch) * time.Millisecond
	sp.split = time.Duration(rng.Intn(int(sp.horizon/time.Millisecond))) * time.Millisecond
	return sp
}

// refRun is everything a pipeline run lets an observer see.
type refRun struct {
	log      []string   // deliveries, enqueues and queue drops, in call order
	lossLogs [][]string // each lossy link's drops, in call order
	samples  []int      // the monitored queue's backlog series
	stats    []QueueStats
}

// runSpec builds sp with either the Lindley queue or the reference
// queue and runs it.
func runSpec(sp refSpec, ref bool) refRun {
	s := NewScheduler()
	var f Factory
	var out refRun
	logf := func(format string, args ...any) { out.log = append(out.log, fmt.Sprintf(format, args...)) }
	sink := NewSink(s, func(p *Packet, at time.Duration) { logf("deliver %d at %v", p.ID, at) })
	queues := make([]anyQueue, len(sp.hops))
	links := make([]*Link, len(sp.hops))
	var next Receiver = sink
	for i := len(sp.hops) - 1; i >= 0; i-- {
		h := sp.hops[i]
		after := next
		if i == sp.echo {
			after = NewEcho(next)
		}
		if h.link {
			links[i] = NewLink(s, h.delay, after)
			after = links[i]
		}
		if h.loss >= 0 {
			ll := NewLossyLink(s, fmt.Sprint("lossy", i), h.loss, int64(i)+1, after)
			k := len(out.lossLogs)
			out.lossLogs = append(out.lossLogs, nil)
			ll.OnDrop(func(p *Packet, now time.Duration) {
				out.lossLogs[k] = append(out.lossLogs[k], fmt.Sprintf("drop %d at %v", p.ID, now))
			})
			after = ll
		}
		name := fmt.Sprint("q", i)
		onEnq := func(p *Packet, now time.Duration, qlen int) {
			logf("enqueue %d at %s %v qlen %d", p.ID, name, now, qlen)
		}
		onDrop := func(p *Packet, now time.Duration) { logf("drop %d at %s %v", p.ID, name, now) }
		if ref {
			q := newRefQueue(s, name, h.rate, h.buffer, after)
			q.onEnqueue, q.onDrop = onEnq, onDrop
			queues[i] = q
		} else {
			q := NewQueue(s, name, h.rate, h.buffer, after)
			q.OnEnqueue(onEnq)
			q.OnDrop(onDrop)
			queues[i] = q
		}
		next = queues[i]
	}
	for _, e := range sp.emissions {
		s.At(e.at, func() {
			p := f.New("src", 0, e.size, e.at)
			p.Probe = e.probe
			queues[e.hop].Receive(p)
		})
	}
	for _, c := range sp.changes {
		if l := links[c.hop]; l != nil {
			s.At(c.at, func() { l.SetDelay(c.delay) })
		}
	}
	// The reference world samples the monitored queue the way Monitor
	// does: an event at each grid point that schedules the next.
	var m *Monitor
	if q, ok := queues[sp.monitor].(*Queue); ok {
		m = NewMonitor(s, q, sp.every, sp.horizon)
		m.Start()
	} else {
		q := queues[sp.monitor]
		var sample func()
		sample = func() {
			n := q.Len()
			if q.Busy() {
				n++
			}
			out.samples = append(out.samples, n)
			if next := s.Now() + sp.every; next <= sp.horizon {
				s.At(next, sample)
			}
		}
		s.At(s.Now(), sample)
	}
	s.Run(sp.split)
	p := f.New("between", 0, 8, s.Now())
	queues[0].Receive(p)
	s.Run(sp.horizon)
	for _, q := range queues {
		out.stats = append(out.stats, q.Stats(s.Now()))
	}
	if m != nil {
		out.samples = m.Samples()
	}
	return out
}

// diffRuns describes the first difference between two runs, or "".
func diffRuns(got, want refRun) string {
	for i := 0; i < max(len(got.log), len(want.log)); i++ {
		if i >= len(got.log) || i >= len(want.log) || got.log[i] != want.log[i] {
			g, w := "(end)", "(end)"
			if i < len(got.log) {
				g = got.log[i]
			}
			if i < len(want.log) {
				w = want.log[i]
			}
			return fmt.Sprintf("log line %d: got %q, want %q", i, g, w)
		}
	}
	if a, b := fmt.Sprint(got.lossLogs), fmt.Sprint(want.lossLogs); a != b {
		return fmt.Sprintf("lossy-link drops %s, want %s", a, b)
	}
	if a, b := fmt.Sprint(got.samples), fmt.Sprint(want.samples); a != b {
		return fmt.Sprintf("monitor samples %s, want %s", a, b)
	}
	if a, b := fmt.Sprint(got.stats), fmt.Sprint(want.stats); a != b {
		return fmt.Sprintf("stats %s, want %s", a, b)
	}
	return ""
}

func checkReference(t *testing.T, seed int64, stretch int) {
	t.Helper()
	sp := randomSpec(rand.New(rand.NewSource(seed)), stretch)
	if d := diffRuns(runSpec(sp, false), runSpec(sp, true)); d != "" {
		t.Fatalf("seed %d, stretch %d: Lindley queue differs from the two-event reference: %s\nspec %+v", seed, stretch, d, sp)
	}
}

// The Lindley queue is observably the two-event queue it replaced:
// on random pipelines full of same-nanosecond ties, every delivery
// (packet and time), enqueue (with qlen), queue drop, lossy-link drop,
// monitor sample and final Stats agree.
func TestQueueMatchesTwoEventReference(t *testing.T) {
	for seed := int64(1); seed <= 2000; seed++ {
		checkReference(t, seed, 1)
	}
}

// Long pipelines, where chains of same-nanosecond coincidences run
// through hundreds of departures. Each listed (seed, stretch) once ran
// in a different order when departures were settled lazily, from a
// bounded history of event keys, instead of in (at, seq) order.
func TestQueueMatchesTwoEventReferenceLong(t *testing.T) {
	for _, c := range []struct {
		seed    int64
		stretch int
	}{
		{1229, 24}, {1435, 18}, {2218, 18}, {4163, 24}, {4199, 24}, {4226, 24},
		{4348, 18}, {6401, 24}, {7403, 24}, {8029, 18}, {10590, 12}, {12164, 24},
		{13502, 24}, {14530, 18}, {14705, 24}, {14750, 24},
	} {
		checkReference(t, c.seed, c.stretch)
	}
	for seed := int64(1); seed <= 100; seed++ {
		checkReference(t, seed, 12)
	}
}

// FuzzQueueReference runs the comparison on arbitrary seeds, at
// stretches 1 to 24.
func FuzzQueueReference(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 42, -7} {
		f.Add(seed, uint8(0))
	}
	f.Add(int64(10590), uint8(11))
	f.Fuzz(func(t *testing.T, seed int64, stretch uint8) {
		checkReference(t, seed, 1+int(stretch%24))
	})
}

// A lossy link fed by two queues draws for each packet as it departs,
// in departure order across both, as it did behind two-event queues:
// the same packets are dropped, at the same instants.
func TestLossyLinkFedByTwoQueuesMatchesReference(t *testing.T) {
	run := func(seed int64, ref bool) []string {
		rng := rand.New(rand.NewSource(seed))
		s := NewScheduler()
		var f Factory
		var log []string
		sink := NewSink(s, func(p *Packet, at time.Duration) { log = append(log, fmt.Sprintf("deliver %d at %v", p.ID, at)) })
		ll := NewLossyLink(s, "shared", 0.4, seed, NewLink(s, 2*time.Millisecond, sink))
		ll.OnDrop(func(p *Packet, now time.Duration) { log = append(log, fmt.Sprintf("drop %d at %v", p.ID, now)) })
		var queues [2]Receiver
		for i := range queues {
			if ref {
				queues[i] = newRefQueue(s, fmt.Sprint("q", i), 8000, 3, ll)
			} else {
				queues[i] = NewQueue(s, fmt.Sprint("q", i), 8000, 3, ll)
			}
		}
		for k := 0; k < 200; k++ {
			at := time.Duration(rng.Intn(400)) * time.Millisecond / 2
			q, size := queues[rng.Intn(2)], 4*(1+rng.Intn(3))
			s.At(at, func() { q.Receive(f.New("x", k, size, at)) })
		}
		s.Run(time.Second)
		return log
	}
	for seed := int64(1); seed <= 50; seed++ {
		got, want := run(seed, false), run(seed, true)
		if a, b := fmt.Sprint(got), fmt.Sprint(want); a != b {
			t.Fatalf("seed %d: got %v\nwant %v", seed, got, want)
		}
	}
}
