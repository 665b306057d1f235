package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestSchedulerRunsEventsInTimeOrder(t *testing.T) {
	s := NewScheduler()
	var got []int
	s.At(30*time.Millisecond, func() { got = append(got, 3) })
	s.At(10*time.Millisecond, func() { got = append(got, 1) })
	s.At(20*time.Millisecond, func() { got = append(got, 2) })
	n := s.Run(time.Second)
	if n != 3 {
		t.Fatalf("executed %d events, want 3", n)
	}
	for i, v := range []int{1, 2, 3} {
		if got[i] != v {
			t.Fatalf("order %v, want [1 2 3]", got)
		}
	}
}

func TestSchedulerStableOrderForEqualTimes(t *testing.T) {
	s := NewScheduler()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(5*time.Millisecond, func() { got = append(got, i) })
	}
	s.Run(time.Second)
	for i, v := range got {
		if v != i {
			t.Fatalf("equal-time events reordered: %v", got)
		}
	}
}

func TestSchedulerHorizonStopsExecution(t *testing.T) {
	s := NewScheduler()
	ran := 0
	s.At(10*time.Millisecond, func() { ran++ })
	s.At(20*time.Millisecond, func() { ran++ })
	s.At(30*time.Millisecond, func() { ran++ })
	if n := s.Run(20 * time.Millisecond); n != 2 {
		t.Fatalf("executed %d events, want 2", n)
	}
	if ran != 2 {
		t.Fatalf("ran = %d, want 2", ran)
	}
	if s.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", s.Pending())
	}
	if s.Now() != 20*time.Millisecond {
		t.Fatalf("now = %v, want 20ms", s.Now())
	}
}

func TestSchedulerEventsScheduleMoreEvents(t *testing.T) {
	s := NewScheduler()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 100 {
			s.After(time.Millisecond, tick)
		}
	}
	s.At(0, tick)
	s.Run(time.Second)
	if count != 100 {
		t.Fatalf("count = %d, want 100", count)
	}
	if s.Now() != time.Second {
		t.Fatalf("now = %v, want 1s (advanced to horizon)", s.Now())
	}
}

func TestSchedulerPanicsOnPastEvent(t *testing.T) {
	s := NewScheduler()
	s.At(10*time.Millisecond, func() {})
	s.Run(time.Second)
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	s.At(5*time.Millisecond, func() {})
}

func TestSchedulerStop(t *testing.T) {
	s := NewScheduler()
	ran := 0
	var times []time.Duration
	s.At(1*time.Millisecond, func() { ran++; times = append(times, s.Now()); s.Stop() })
	s.At(2*time.Millisecond, func() { ran++; times = append(times, s.Now()) })
	s.Run(time.Second)
	if ran != 1 {
		t.Fatalf("ran = %d, want 1 after Stop", ran)
	}
	// The clock stays at the stopping event while an earlier-than-
	// horizon event is pending, so scheduling between the two is legal.
	if s.Now() != time.Millisecond {
		t.Fatalf("now = %v after Stop, want 1ms", s.Now())
	}
	s.At(3*time.Millisecond, func() { ran++; times = append(times, s.Now()) })
	if n := s.Run(time.Second); n != 2 {
		t.Fatalf("resumed Run executed %d events, want 2", n)
	}
	want := []time.Duration{time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond}
	if len(times) != len(want) {
		t.Fatalf("events ran at %v, want %v", times, want)
	}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("events ran at %v, want %v (time must be monotone)", times, want)
		}
	}
	if s.Now() != time.Second {
		t.Fatalf("now = %v after the resumed Run, want 1s", s.Now())
	}
}

func TestSchedulerStopOnLastEventAdvancesToHorizon(t *testing.T) {
	s := NewScheduler()
	s.At(time.Millisecond, s.Stop)
	s.At(2*time.Second, func() {})
	s.Run(time.Second)
	// Nothing at or before the horizon is left, so stopping changes
	// nothing about where the clock ends up.
	if s.Now() != time.Second {
		t.Fatalf("now = %v, want 1s", s.Now())
	}
}

func TestQueueServiceTime(t *testing.T) {
	s := NewScheduler()
	q := NewQueue(s, "bottleneck", 128_000, 10, nil)
	// 72 bytes = 576 bits at 128 kb/s = 4.5 ms, the paper's probe
	// service time at the transatlantic link.
	if got, want := q.ServiceTime(72), 4500*time.Microsecond; got != want {
		t.Fatalf("ServiceTime(72) = %v, want %v", got, want)
	}
}

func TestQueueFIFOAndDelay(t *testing.T) {
	s := NewScheduler()
	var f Factory
	var deliveries []struct {
		id int64
		at time.Duration
	}
	sink := NewSink(s, func(pkt *Packet, at time.Duration) {
		deliveries = append(deliveries, struct {
			id int64
			at time.Duration
		}{pkt.ID, at})
	})
	q := NewQueue(s, "q", 8000, 10, sink) // 1 byte per ms
	// Two 10-byte packets arriving together: first served after
	// 10 ms, second after 20 ms.
	s.At(0, func() {
		q.Receive(f.New("a", 0, 10, 0))
		q.Receive(f.New("a", 1, 10, 0))
	})
	s.Run(time.Second)
	if len(deliveries) != 2 {
		t.Fatalf("delivered %d packets, want 2", len(deliveries))
	}
	if deliveries[0].at != 10*time.Millisecond || deliveries[1].at != 20*time.Millisecond {
		t.Fatalf("delivery times %v, %v; want 10ms, 20ms", deliveries[0].at, deliveries[1].at)
	}
	if deliveries[0].id >= deliveries[1].id {
		t.Fatalf("FIFO order violated: %d before %d", deliveries[0].id, deliveries[1].id)
	}
}

func TestQueueDropsWhenBufferFull(t *testing.T) {
	s := NewScheduler()
	var f Factory
	sink := NewSink(s, nil)
	q := NewQueue(s, "q", 8000, 2, sink)
	var drops int
	q.OnDrop(func(*Packet, time.Duration) { drops++ })
	// One in service + two waiting = capacity; fourth arrival drops.
	s.At(0, func() {
		for i := 0; i < 4; i++ {
			q.Receive(f.New("a", i, 10, 0))
		}
	})
	s.Run(time.Second)
	if drops != 1 {
		t.Fatalf("drops = %d, want 1", drops)
	}
	if sink.Count() != 3 {
		t.Fatalf("delivered = %d, want 3", sink.Count())
	}
	st := q.Stats(s.Now())
	if st.Arrived != 4 || st.Served != 3 || st.Dropped != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestQueueUtilization(t *testing.T) {
	s := NewScheduler()
	var f Factory
	q := NewQueue(s, "q", 8000, 10, NewSink(s, nil))
	s.At(0, func() { q.Receive(f.New("a", 0, 10, 0)) }) // 10 ms of service
	s.Run(100 * time.Millisecond)
	st := q.Stats(100 * time.Millisecond)
	if st.Utilization < 0.099 || st.Utilization > 0.101 {
		t.Fatalf("utilization = %v, want 0.1", st.Utilization)
	}
}

func TestLinkDelaysWithoutReordering(t *testing.T) {
	s := NewScheduler()
	var f Factory
	var at []time.Duration
	sink := NewSink(s, func(_ *Packet, t time.Duration) { at = append(at, t) })
	l := NewLink(s, 70*time.Millisecond, sink)
	s.At(0, func() { l.Receive(f.New("a", 0, 10, 0)) })
	s.At(time.Millisecond, func() { l.Receive(f.New("a", 1, 10, 0)) })
	s.Run(time.Second)
	if len(at) != 2 || at[0] != 70*time.Millisecond || at[1] != 71*time.Millisecond {
		t.Fatalf("deliveries at %v, want [70ms 71ms]", at)
	}
}

func TestLossyLinkDropRate(t *testing.T) {
	s := NewScheduler()
	var f Factory
	sink := NewSink(s, nil)
	ll := NewLossyLink(s, "sura", 0.03, 1, sink)
	const n = 100000
	s.At(0, func() {
		for i := 0; i < n; i++ {
			ll.Receive(f.New("a", i, 10, 0))
		}
	})
	s.Run(time.Second)
	rate := float64(ll.Dropped()) / n
	if rate < 0.025 || rate > 0.035 {
		t.Fatalf("drop rate = %v, want ≈0.03", rate)
	}
	if ll.Dropped()+sink.Count() != n {
		t.Fatalf("dropped %d + delivered %d != %d", ll.Dropped(), sink.Count(), n)
	}
}

func TestLossyLinkZeroAndOne(t *testing.T) {
	s := NewScheduler()
	var f Factory
	sink := NewSink(s, nil)
	never := NewLossyLink(s, "never", 0, 1, sink)
	always := NewLossyLink(s, "always", 1, 1, sink)
	s.At(0, func() {
		for i := 0; i < 100; i++ {
			never.Receive(f.New("a", i, 10, 0))
			always.Receive(f.New("b", i, 10, 0))
		}
	})
	s.Run(time.Second)
	if never.Dropped() != 0 {
		t.Fatalf("p=0 dropped %d packets", never.Dropped())
	}
	if always.Dropped() != 100 {
		t.Fatalf("p=1 dropped %d packets, want 100", always.Dropped())
	}
}

func TestEchoTurnsProbesAround(t *testing.T) {
	s := NewScheduler()
	var f Factory
	sink := NewSink(s, nil)
	echo := NewEcho(sink)
	probe := f.New("probe", 0, 72, 0)
	probe.Probe = true
	cross := f.New("ftp", 0, 512, 0)
	s.At(0, func() {
		echo.Receive(probe)
		echo.Receive(cross)
	})
	s.Run(time.Second)
	if sink.Count() != 1 {
		t.Fatalf("echo forwarded %d packets, want 1 (probe only)", sink.Count())
	}
	if probe.Dir != Return {
		t.Fatalf("probe direction = %v, want return", probe.Dir)
	}
}

func TestPeriodicSourceTiming(t *testing.T) {
	s := NewScheduler()
	var f Factory
	var sent []time.Duration
	sink := NewSink(s, nil)
	src := NewPeriodicSource(s, &f, "probe", 72, 50*time.Millisecond, 5, 0, sink)
	src.OnSend(func(_ int, at time.Duration) { sent = append(sent, at) })
	src.Start()
	s.Run(time.Second)
	if len(sent) != 5 {
		t.Fatalf("sent %d packets, want 5", len(sent))
	}
	for i, at := range sent {
		if want := time.Duration(i) * 50 * time.Millisecond; at != want {
			t.Fatalf("packet %d sent at %v, want %v", i, at, want)
		}
	}
	if sink.Count() != 5 {
		t.Fatalf("delivered %d, want 5", sink.Count())
	}
}

func TestTapObservesAndForwards(t *testing.T) {
	s := NewScheduler()
	var f Factory
	sink := NewSink(s, nil)
	seen := 0
	tap := NewTap(s, func(*Packet, time.Duration) { seen++ }, sink)
	s.At(0, func() {
		for i := 0; i < 7; i++ {
			tap.Receive(f.New("a", i, 10, 0))
		}
	})
	s.Run(time.Second)
	if seen != 7 || sink.Count() != 7 {
		t.Fatalf("seen = %d, delivered = %d, want 7/7", seen, sink.Count())
	}
}

func TestFilterKeepsOnlyMatching(t *testing.T) {
	s := NewScheduler()
	var f Factory
	sink := NewSink(s, nil)
	flt := NewFilter(func(p *Packet) bool { return p.Probe }, sink)
	s.At(0, func() {
		p := f.New("probe", 0, 72, 0)
		p.Probe = true
		flt.Receive(p)
		flt.Receive(f.New("ftp", 0, 512, 0))
	})
	s.Run(time.Second)
	if sink.Count() != 1 {
		t.Fatalf("filter passed %d packets, want 1", sink.Count())
	}
}

func TestFactoryUniqueIDs(t *testing.T) {
	var f Factory
	ids := map[int64]bool{}
	for i := 0; i < 1000; i++ {
		p := f.New("a", i, 10, 0)
		if ids[p.ID] {
			t.Fatalf("duplicate packet ID %d", p.ID)
		}
		ids[p.ID] = true
	}
}

// Property: queue conservation — arrivals = served + dropped + still queued.
func TestQueueConservationProperty(t *testing.T) {
	check := func(seed int64, nArr uint8, buf uint8) bool {
		n := int(nArr)%200 + 1
		capacity := int(buf)%20 + 1
		s := NewScheduler()
		var f Factory
		sink := NewSink(s, nil)
		q := NewQueue(s, "q", 64_000, capacity, sink)
		rng := rand.New(rand.NewSource(seed))
		at := time.Duration(0)
		for i := 0; i < n; i++ {
			at += time.Duration(rng.Intn(5)) * time.Millisecond
			pkt := f.New("a", i, 16+rng.Intn(1000), at)
			s.At(at, func() { q.Receive(pkt) })
		}
		s.Run(time.Hour)
		st := q.Stats(s.Now())
		inFlight := int64(q.Len())
		if q.Busy() {
			inFlight++
		}
		return st.Arrived == int64(n) &&
			st.Served+st.Dropped+inFlight == st.Arrived &&
			st.Served == sink.Count()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: with an infinite-enough buffer, FIFO queue departures are
// ordered and spaced at least a service time apart during busy periods.
func TestQueueDepartureSpacingProperty(t *testing.T) {
	check := func(seed int64) bool {
		s := NewScheduler()
		var f Factory
		var deps []time.Duration
		sink := NewSink(s, func(_ *Packet, at time.Duration) { deps = append(deps, at) })
		q := NewQueue(s, "q", 128_000, 1000, sink)
		rng := rand.New(rand.NewSource(seed))
		at := time.Duration(0)
		const size = 72 // fixed size: service time 4.5 ms
		for i := 0; i < 100; i++ {
			at += time.Duration(rng.Intn(6)) * time.Millisecond
			pkt := f.New("a", i, size, at)
			s.At(at, func() { q.Receive(pkt) })
		}
		s.Run(time.Hour)
		svc := q.ServiceTime(size)
		for i := 1; i < len(deps); i++ {
			if deps[i]-deps[i-1] < svc-time.Nanosecond {
				return false
			}
		}
		return len(deps) == 100
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
