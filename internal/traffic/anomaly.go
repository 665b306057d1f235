package traffic

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"netprobe/internal/sim"
)

// PeriodicBurst injects a burst of packets at a fixed period — the
// pathology reported in the paper's companion work [22], where a
// 'debug' option in gateway software made round-trip delays "increase
// dramatically every 90 seconds". Injecting this source at a queue and
// recovering the period from the probe RTT series demonstrates the
// diagnostic use of the tool.
type PeriodicBurst struct {
	sched   *sim.Scheduler
	factory *sim.Factory
	flow    string
	size    int
	count   int
	period  time.Duration
	start   time.Duration
	horizon time.Duration
	out     sim.Receiver
	seq     int
	fireFn  func() // p.fire, bound once so scheduling allocates nothing
}

// NewPeriodicBurst returns a source that, every period starting at
// start, delivers count packets of size bytes back to back into out.
func NewPeriodicBurst(sched *sim.Scheduler, factory *sim.Factory, flow string, size, count int, period, start, horizon time.Duration, out sim.Receiver) *PeriodicBurst {
	if period <= 0 {
		panic(fmt.Sprintf("traffic: periodic burst %q: non-positive period %v", flow, period))
	}
	if count <= 0 || size <= 0 {
		panic(fmt.Sprintf("traffic: periodic burst %q: bad count %d or size %d", flow, count, size))
	}
	p := &PeriodicBurst{
		sched:   sched,
		factory: factory,
		flow:    flow,
		size:    size,
		count:   count,
		period:  period,
		start:   start,
		horizon: horizon,
		out:     out,
	}
	p.fireFn = p.fire
	return p
}

// Start implements Generator.
func (p *PeriodicBurst) Start() {
	if p.start > p.horizon {
		return
	}
	p.sched.At(p.start, p.fireFn)
}

func (p *PeriodicBurst) fire() {
	for i := 0; i < p.count; i++ {
		pkt := p.factory.New(p.flow, p.seq, p.size, p.sched.Now())
		p.seq++
		p.out.Receive(pkt)
	}
	next := p.sched.Now() + p.period
	if next > p.horizon {
		return
	}
	p.sched.At(next, p.fireFn)
}

// Modulated is a Poisson source whose rate is modulated sinusoidally
// with the given period — a scaled-down model of the diurnal
// congestion cycle that the spectral analysis of [19] exposes in
// Internet delays ("a base congestion level which changes slowly with
// time").
type Modulated struct {
	sched   *sim.Scheduler
	factory *sim.Factory
	flow    string
	size    int
	baseGap time.Duration
	depth   float64 // modulation depth in [0,1)
	period  time.Duration
	horizon time.Duration
	out     sim.Receiver
	rng     *rand.Rand
	seq     int
	emitFn  func() // m.emit, bound once so scheduling allocates nothing
}

// NewModulated returns a modulated source: the instantaneous mean gap
// is baseGap / (1 + depth·sin(2πt/period)). depth must be in [0, 1).
func NewModulated(sched *sim.Scheduler, factory *sim.Factory, flow string, size int, baseGap time.Duration, depth float64, period, horizon time.Duration, seed int64, out sim.Receiver) *Modulated {
	if baseGap <= 0 || period <= 0 {
		panic(fmt.Sprintf("traffic: modulated %q: bad gap %v or period %v", flow, baseGap, period))
	}
	if depth < 0 || depth >= 1 {
		panic(fmt.Sprintf("traffic: modulated %q: depth %v out of [0,1)", flow, depth))
	}
	m := &Modulated{
		sched:   sched,
		factory: factory,
		flow:    flow,
		size:    size,
		baseGap: baseGap,
		depth:   depth,
		period:  period,
		horizon: horizon,
		out:     out,
		rng:     rand.New(rand.NewSource(seed)),
	}
	m.emitFn = m.emit
	return m
}

// Start implements Generator.
func (m *Modulated) Start() { m.scheduleNext() }

func (m *Modulated) scheduleNext() {
	t := m.sched.Now()
	phase := 2 * math.Pi * float64(t) / float64(m.period)
	rate := (1 + m.depth*math.Sin(phase)) / float64(m.baseGap)
	gap := time.Duration(m.rng.ExpFloat64() / rate)
	at := t + gap
	if at > m.horizon {
		return
	}
	m.sched.At(at, m.emitFn)
}

func (m *Modulated) emit() {
	pkt := m.factory.New(m.flow, m.seq, m.size, m.sched.Now())
	m.seq++
	m.out.Receive(pkt)
	m.scheduleNext()
}
