package sim

import (
	"math/rand"
	"testing"
	"time"

	"netprobe/internal/queue"
)

// With an unbounded buffer the queue is Lindley's recurrence: customer
// n departs at a_n + w_n + S_n, where w_n comes from queue.Waits. Times
// go to Waits as float64 nanoseconds, which are exact integers, so the
// departures must agree to the nanosecond.
func TestQueueDeparturesMatchLindleyWaits(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(400)
		s := NewScheduler()
		var f Factory
		got := map[int64]time.Duration{}
		sink := NewSink(s, func(p *Packet, at time.Duration) { got[p.ID] = at })
		q := NewQueue(s, "q", 64_000+int64(rng.Intn(1_000_000)), n, sink)

		arrivals := make([]time.Duration, n)
		ids := make([]int64, n)
		service := make([]float64, n)
		gaps := make([]float64, n)
		at := time.Duration(0)
		for i := range arrivals {
			if i > 0 {
				gap := time.Duration(rng.Int63n(int64(20 * time.Millisecond)))
				if rng.Intn(4) == 0 {
					gap = 0 // back-to-back arrivals
				}
				at += gap
				gaps[i-1] = float64(gap)
			}
			pkt := f.New("x", i, 1+rng.Intn(1500), at)
			arrivals[i], ids[i] = at, pkt.ID
			service[i] = float64(q.ServiceTime(pkt.Size))
			s.At(at, func() { q.Receive(pkt) })
		}
		s.Run(time.Hour)

		waits := queue.Waits(service, gaps)
		for i, w := range waits {
			want := arrivals[i] + time.Duration(w) + time.Duration(service[i])
			if got[ids[i]] != want {
				t.Fatalf("seed %d: customer %d departs at %v, Lindley gives %v", seed, i, got[ids[i]], want)
			}
		}
	}
}

// A packet still waiting in the queue when its link's delay changes
// takes the new delay when it departs, while a packet already on the
// link keeps the old one — including a change made exactly at a
// departure instant, where the departure that would already have run
// keeps the old delay.
func TestSetDelayAppliesToPacketsStillQueued(t *testing.T) {
	s := NewScheduler()
	var f Factory
	got := map[int]time.Duration{}
	sink := NewSink(s, func(p *Packet, at time.Duration) { got[p.Seq] = at })
	l := NewLink(s, 10*time.Millisecond, sink)
	q := NewQueue(s, "q", 8000, 10, l) // 1 byte per ms
	// Three 10-byte packets at t=0 depart at 10, 20 and 30 ms. Equal
	// times run in scheduling order: the first change, scheduled at
	// 15 ms, runs after the departure at 20 ms (scheduled at 10 ms);
	// the second, scheduled at 5 ms, before the one at 30 ms
	// (scheduled at 20 ms).
	s.At(0, func() {
		for i := 0; i < 3; i++ {
			q.Receive(f.New("a", i, 10, 0))
		}
	})
	s.At(15*time.Millisecond, func() {
		s.At(20*time.Millisecond, func() { l.SetDelay(30 * time.Millisecond) })
	})
	s.At(5*time.Millisecond, func() {
		s.At(30*time.Millisecond, func() { l.SetDelay(time.Millisecond) })
	})
	s.Run(time.Second)
	want := map[int]time.Duration{
		0: 20 * time.Millisecond, // left at 10 ms with the old 10 ms
		1: 30 * time.Millisecond, // left at 20 ms, just before the first change
		2: 31 * time.Millisecond, // still waiting then; left at 30 ms, just after the second
	}
	for seq, at := range want {
		if got[seq] != at {
			t.Fatalf("packet %d delivered at %v, want %v (all: %v)", seq, got[seq], at, got)
		}
	}
}
