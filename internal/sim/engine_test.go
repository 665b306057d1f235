package sim

import (
	"math/rand"
	"sort"
	"testing"
	"time"
	"unsafe"
)

// recorder is a packet-event handler for the scheduler tests: it logs
// the packet's ID and runs an optional follow-up.
type recorder struct {
	log  *[]int64
	then func()
}

func (r recorder) fire(pkt *Packet) {
	*r.log = append(*r.log, pkt.ID)
	if r.then != nil {
		r.then()
	}
}

// Property: for random mixes of func and packet events, with many
// equal times and events scheduling further events from inside their
// handlers, the execution order is a stable sort by (at, seq) of
// everything scheduled, and MaxPending is the true high-water mark.
func TestSchedulerOrderMatchesReferenceProperty(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := NewScheduler()
		type ref struct {
			at time.Duration
			id int64
		}
		var (
			scheduled []ref // in schedule (= seq) order
			executed  []int64
			pending   int
			highWater int
			nextID    int64
			budget    = 50 + rng.Intn(300)
		)
		var add func()
		add = func() {
			if budget == 0 {
				return
			}
			budget--
			nextID++
			id := nextID
			// A handful of distinct offsets, so many events share a time.
			at := s.Now() + time.Duration(rng.Intn(4))*time.Millisecond
			scheduled = append(scheduled, ref{at, id})
			pending++
			highWater = max(highWater, pending)
			// Each handler schedules 0, 1 or 2 more events.
			then := func() {
				pending--
				for k := rng.Intn(3); k > 0; k-- {
					add()
				}
			}
			if rng.Intn(2) == 0 {
				s.At(at, func() { executed = append(executed, id); then() })
			} else {
				s.schedule(at, recorder{log: &executed, then: then}, &Packet{ID: id})
			}
		}
		for i := rng.Intn(20) + 1; i > 0; i-- {
			add()
		}
		s.Run(time.Hour)

		want := append([]ref(nil), scheduled...)
		sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })
		if len(executed) != len(want) {
			t.Fatalf("seed %d: executed %d events, scheduled %d", seed, len(executed), len(want))
		}
		for i := range want {
			if executed[i] != want[i].id {
				t.Fatalf("seed %d: event %d is #%d, want #%d", seed, i, executed[i], want[i].id)
			}
		}
		if s.MaxPending() != highWater {
			t.Fatalf("seed %d: MaxPending = %d, want %d", seed, s.MaxPending(), highWater)
		}
		if s.Executed() != uint64(len(want)) || s.Pending() != 0 {
			t.Fatalf("seed %d: Executed = %d, Pending = %d", seed, s.Executed(), s.Pending())
		}
	}
}

// The packet path checks causality like At does
// (TestSchedulerPanicsOnPastEvent).
func TestSchedulerPanicsOnPastPacketEvent(t *testing.T) {
	s := NewScheduler()
	s.At(10*time.Millisecond, func() {})
	s.Run(time.Second)
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling a packet event in the past did not panic")
		}
	}()
	var log []int64
	s.schedule(s.Now()-time.Nanosecond, recorder{log: &log}, &Packet{})
}

// An event is five words: (at, seq, handler, *Packet), with no
// per-event closure hanging off it.
func TestEventIsFiveWords(t *testing.T) {
	if got, want := unsafe.Sizeof(event{}), 5*unsafe.Sizeof(uintptr(0)); got != want {
		t.Fatalf("event is %d bytes, want %d", got, want)
	}
}

// The steady state of a probe round trip allocates nothing: a packet
// crossing Queue → LossyLink → Link → Echo → Queue → Link → Sink is
// carried by value events, and the queue's ring reuses its slots.
func TestRoundTripAllocatesNothing(t *testing.T) {
	s := NewScheduler()
	var f Factory
	delivered := 0
	sink := NewSink(s, func(*Packet, time.Duration) { delivered++ })
	ret := NewQueue(s, "ret", 1_544_000, 8, NewLink(s, 3*time.Millisecond, sink))
	fwd := NewQueue(s, "fwd", 128_000, 8,
		NewLossyLink(s, "lossy", 0, 1, NewLink(s, 45*time.Millisecond, NewEcho(ret))))
	// Two probes per round, so the second waits in each queue's ring.
	a, b := f.New("probe", 0, 72, 0), f.New("probe", 1, 72, 0)
	a.Probe, b.Probe = true, true
	horizon := time.Duration(0)
	allocs := testing.AllocsPerRun(100, func() {
		a.Dir, b.Dir = Forward, Forward
		fwd.Receive(a)
		fwd.Receive(b)
		horizon += time.Second
		s.Run(horizon)
	})
	if delivered != 2*101 {
		t.Fatalf("delivered %d probes, want %d", delivered, 2*101)
	}
	if allocs != 0 {
		t.Fatalf("%v allocs per round trip, want 0", allocs)
	}
}

// A periodic source allocates only the packet it emits.
func TestPeriodicSourceAllocatesOnlyThePacket(t *testing.T) {
	s := NewScheduler()
	var f Factory
	// Stopping at every delivery makes each Run one emission.
	sink := NewSink(s, func(*Packet, time.Duration) { s.Stop() })
	NewPeriodicSource(s, &f, "probe", 72, 20*time.Millisecond, 1<<20, 0, sink).Start()
	allocs := testing.AllocsPerRun(100, func() { s.Run(time.Hour) })
	if sink.Count() != 101 {
		t.Fatalf("emitted %d packets, want 101", sink.Count())
	}
	if allocs > 1 {
		t.Fatalf("%v allocs per emitted packet, want ≤ 1", allocs)
	}
}
