package traffic

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"netprobe/internal/sim"
)

func TestConstDist(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if v := (Const(3.5)).Sample(rng); v != 3.5 {
		t.Fatalf("Const sample = %v, want 3.5", v)
	}
}

func TestExpDistMean(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += Exp(2.0).Sample(rng)
	}
	mean := sum / n
	if mean < 1.95 || mean > 2.05 {
		t.Fatalf("Exp(2) mean = %v, want ≈2", mean)
	}
}

func TestUniformRange(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	u := Uniform{Lo: 1, Hi: 3}
	for i := 0; i < 10000; i++ {
		v := u.Sample(rng)
		if v < 1 || v > 3 {
			t.Fatalf("Uniform sample %v out of [1,3]", v)
		}
	}
}

func TestGeometricMeanAndSupport(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := Geometric(8)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		v := g.Sample(rng)
		if v < 1 || v != math.Trunc(v) {
			t.Fatalf("Geometric sample %v not a positive integer", v)
		}
		sum += v
	}
	mean := sum / n
	if mean < 7.8 || mean > 8.2 {
		t.Fatalf("Geometric(8) mean = %v, want ≈8", mean)
	}
}

func TestGeometricDegenerateMean(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := Geometric(0.5) // clamped to mean 1
	for i := 0; i < 100; i++ {
		if v := g.Sample(rng); v != 1 {
			t.Fatalf("Geometric(0.5) sample = %v, want 1", v)
		}
	}
}

func TestParetoSupport(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := Pareto{Xm: 4, Alpha: 1.5}
	for i := 0; i < 10000; i++ {
		if v := p.Sample(rng); v < 4 {
			t.Fatalf("Pareto sample %v below Xm=4", v)
		}
	}
}

func TestParetoHeavyTail(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := Pareto{Xm: 1, Alpha: 1.2}
	over := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if p.Sample(rng) > 10 {
			over++
		}
	}
	// P(X > 10) = 10^-1.2 ≈ 0.063.
	frac := float64(over) / n
	if frac < 0.05 || frac > 0.08 {
		t.Fatalf("Pareto tail mass = %v, want ≈0.063", frac)
	}
}

func TestPoissonRate(t *testing.T) {
	s := sim.NewScheduler()
	var f sim.Factory
	sink := sim.NewSink(s, nil)
	horizon := 100 * time.Second
	p := NewPoisson(s, &f, "telnet", 64, 100*time.Millisecond, horizon, 7, sink)
	p.Start()
	s.Run(horizon)
	// Expect ≈1000 packets over 100 s at 10 pps.
	got := sink.Count()
	if got < 900 || got > 1100 {
		t.Fatalf("Poisson emitted %d packets, want ≈1000", got)
	}
}

func TestPoissonStopsAtHorizon(t *testing.T) {
	s := sim.NewScheduler()
	var f sim.Factory
	var last time.Duration
	sink := sim.NewSink(s, func(_ *sim.Packet, at time.Duration) { last = at })
	horizon := 10 * time.Second
	NewPoisson(s, &f, "telnet", 64, 10*time.Millisecond, horizon, 7, sink).Start()
	s.Run(time.Hour)
	if last > horizon {
		t.Fatalf("packet emitted at %v past horizon %v", last, horizon)
	}
}

func TestBulkTrainStructure(t *testing.T) {
	s := sim.NewScheduler()
	var f sim.Factory
	var arrivals []time.Duration
	sink := sim.NewSink(s, func(_ *sim.Packet, at time.Duration) { arrivals = append(arrivals, at) })
	// Deterministic: idle exactly 1 s, trains of exactly 5 packets,
	// access link 512 bytes at 4 Mb/s ⇒ ≈1.024 ms per packet.
	b := NewBulk(s, &f, "ftp", 512, 4_000_000, Const(1), Const(5), 10*time.Second, 3, sink)
	b.Start()
	s.Run(10 * time.Second)
	if len(arrivals) == 0 || len(arrivals)%5 != 0 {
		t.Fatalf("bulk emitted %d packets, want a multiple of 5", len(arrivals))
	}
	// Within a train, packets are ~1 ms apart; between trains, ≥1 s.
	gap := arrivals[1] - arrivals[0]
	if gap > 2*time.Millisecond {
		t.Fatalf("intra-train gap = %v, want ≈1 ms", gap)
	}
	interTrain := arrivals[5] - arrivals[4]
	if interTrain < time.Second {
		t.Fatalf("inter-train gap = %v, want ≥1 s", interTrain)
	}
}

func TestBulkMeanLoad(t *testing.T) {
	s := sim.NewScheduler()
	var f sim.Factory
	var bits int64
	sink := sim.NewSink(s, func(p *sim.Packet, _ time.Duration) { bits += p.Bits() })
	horizon := 200 * time.Second
	// Mean train 8 pkts × 512 B = 32768 bits per transfer, one
	// transfer ≈ every 1 s idle (plus train duration ≈ 1 ms×8).
	b := NewBulk(s, &f, "ftp", 512, 4_000_000, Exp(1), Geometric(8), horizon, 11, sink)
	b.Start()
	s.Run(horizon)
	rate := float64(bits) / horizon.Seconds()
	if rate < 20_000 || rate > 46_000 {
		t.Fatalf("bulk offered load = %v b/s, want ≈32768", rate)
	}
}

func TestMixStartsAll(t *testing.T) {
	s := sim.NewScheduler()
	var f sim.Factory
	sink := sim.NewSink(s, nil)
	horizon := 10 * time.Second
	m := Mix{
		NewPoisson(s, &f, "a", 64, 100*time.Millisecond, horizon, 1, sink),
		NewInteractive(s, &f, "b", 64, 100*time.Millisecond, horizon, 2, sink),
	}
	m.Start()
	s.Run(horizon)
	if sink.Count() < 100 {
		t.Fatalf("mix emitted only %d packets", sink.Count())
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	run := func() []time.Duration {
		s := sim.NewScheduler()
		var f sim.Factory
		var at []time.Duration
		sink := sim.NewSink(s, func(_ *sim.Packet, t time.Duration) { at = append(at, t) })
		NewPoisson(s, &f, "a", 64, 10*time.Millisecond, time.Second, 42, sink).Start()
		s.Run(time.Second)
		return at
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

// Property: all distribution samples are non-negative (sizes and gaps
// must never go negative, or the scheduler would panic).
func TestDistNonNegativeProperty(t *testing.T) {
	dists := []Dist{Exp(1), Geometric(4), Pareto{Xm: 1, Alpha: 2}, Uniform{0, 5}, Const(2)}
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		for _, d := range dists {
			for i := 0; i < 100; i++ {
				if d.Sample(rng) < 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Every generator binds its event handlers once: an emission allocates
// the packet and nothing else.
func TestGeneratorsAllocateOnlyThePacket(t *testing.T) {
	const horizon = 1000 * time.Hour
	gens := map[string]func(*sim.Scheduler, *sim.Factory, sim.Receiver) Generator{
		"poisson": func(s *sim.Scheduler, f *sim.Factory, out sim.Receiver) Generator {
			return NewPoisson(s, f, "telnet", 40, time.Millisecond, horizon, 1, out)
		},
		"bulk": func(s *sim.Scheduler, f *sim.Factory, out sim.Receiver) Generator {
			return NewBulk(s, f, "ftp", 512, 10_000_000, Exp(0.01), Geometric(5), horizon, 1, out)
		},
		"modulated": func(s *sim.Scheduler, f *sim.Factory, out sim.Receiver) Generator {
			return NewModulated(s, f, "diurnal", 512, time.Millisecond, 0.5, time.Second, horizon, 1, out)
		},
		"periodic-burst": func(s *sim.Scheduler, f *sim.Factory, out sim.Receiver) Generator {
			return NewPeriodicBurst(s, f, "debug", 512, 1, time.Millisecond, 0, horizon, out)
		},
	}
	// Each Run stops after the tenth delivery, so a stray allocation
	// on only some emissions (e.g. all but the last of a Bulk train)
	// still shows in the integer allocs-per-run average.
	const perRun = 10
	for name, newGen := range gens {
		s := sim.NewScheduler()
		var f sim.Factory
		var sink *sim.Sink
		sink = sim.NewSink(s, func(*sim.Packet, time.Duration) {
			if sink.Count()%perRun == 0 {
				s.Stop()
			}
		})
		newGen(s, &f, sink).Start()
		allocs := testing.AllocsPerRun(100, func() { s.Run(horizon) })
		if sink.Count() != 101*perRun {
			t.Fatalf("%s: emitted %d packets, want %d", name, sink.Count(), 101*perRun)
		}
		if allocs > perRun {
			t.Errorf("%s: %v allocs per %d emitted packets, want ≤ %d", name, allocs, perRun, perRun)
		}
	}
}
