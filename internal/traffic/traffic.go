// Package traffic generates the cross traffic ("Internet stream")
// that shares the bottleneck with the probe stream in the paper's
// model (Figure 3).
//
// The paper's measurements are "consistent with the hypothesis of a
// mix of bulk traffic with larger packet size, and interactive traffic
// with smaller packet size". The generators here produce exactly such
// a mix: Bulk models FTP-like transfers that deliver trains of large
// packets; Interactive models Telnet-like sources emitting isolated
// small packets; Poisson and Batch are the building blocks. All
// generators are deterministic given a seed.
package traffic

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"netprobe/internal/sim"
)

// Generator is implemented by traffic sources. Start schedules the
// source's first event; the source then keeps itself scheduled until
// the horizon passes.
type Generator interface {
	Start()
}

// Dist is a distribution of non-negative durations or sizes.
type Dist interface {
	// Sample draws one value using rng.
	Sample(rng *rand.Rand) float64
}

// Const is a distribution concentrated on a single value.
type Const float64

// Sample implements Dist.
func (c Const) Sample(*rand.Rand) float64 { return float64(c) }

// Exp is an exponential distribution with the given mean.
type Exp float64

// Sample implements Dist.
func (e Exp) Sample(rng *rand.Rand) float64 { return rng.ExpFloat64() * float64(e) }

// Uniform is a uniform distribution on [Lo, Hi].
type Uniform struct{ Lo, Hi float64 }

// Sample implements Dist.
func (u Uniform) Sample(rng *rand.Rand) float64 {
	return u.Lo + rng.Float64()*(u.Hi-u.Lo)
}

// Geometric is a geometric distribution on {1, 2, ...} with the given
// mean (mean must be >= 1).
type Geometric float64

// Sample implements Dist.
func (g Geometric) Sample(rng *rand.Rand) float64 {
	mean := float64(g)
	if mean < 1 {
		mean = 1
	}
	p := 1 / mean
	if p >= 1 {
		return 1
	}
	// Inverse transform for the geometric on {1,2,...}.
	u := rng.Float64()
	return math.Ceil(math.Log(1-u) / math.Log(1-p))
}

// Pareto is a bounded Pareto distribution with shape Alpha and scale
// Xm (minimum value). Heavy-tailed sources model long file transfers.
type Pareto struct {
	Xm    float64
	Alpha float64
}

// Sample implements Dist.
func (p Pareto) Sample(rng *rand.Rand) float64 {
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	return p.Xm / math.Pow(u, 1/p.Alpha)
}

// Poisson emits fixed-size packets with exponential inter-arrival
// times (rate = 1/MeanGap).
type Poisson struct {
	sched   *sim.Scheduler
	factory *sim.Factory
	flow    string
	size    int
	meanGap time.Duration
	out     sim.Receiver
	rng     *rand.Rand
	horizon time.Duration
	seq     int
	emitFn  func() // p.emit, bound once so scheduling allocates nothing
}

// NewPoisson returns a Poisson source for flow, emitting size-byte
// packets into out with mean inter-arrival meanGap, until horizon.
func NewPoisson(sched *sim.Scheduler, factory *sim.Factory, flow string, size int, meanGap time.Duration, horizon time.Duration, seed int64, out sim.Receiver) *Poisson {
	if meanGap <= 0 {
		panic(fmt.Sprintf("traffic: poisson %q: non-positive mean gap %v", flow, meanGap))
	}
	p := &Poisson{
		sched:   sched,
		factory: factory,
		flow:    flow,
		size:    size,
		meanGap: meanGap,
		out:     out,
		rng:     rand.New(rand.NewSource(seed)),
		horizon: horizon,
	}
	p.emitFn = p.emit
	return p
}

// Start implements Generator.
func (p *Poisson) Start() { p.scheduleNext() }

func (p *Poisson) scheduleNext() {
	gap := time.Duration(p.rng.ExpFloat64() * float64(p.meanGap))
	at := p.sched.Now() + gap
	if at > p.horizon {
		return
	}
	p.sched.At(at, p.emitFn)
}

func (p *Poisson) emit() {
	pkt := p.factory.New(p.flow, p.seq, p.size, p.sched.Now())
	p.seq++
	p.out.Receive(pkt)
	p.scheduleNext()
}

// Bulk models an FTP-like transfer source: it alternates between idle
// periods (drawn from Idle) and transfers of a random number of
// fixed-size packets (train length drawn from Train). Packets within
// a train arrive at the access-link rate AccessBps, which is typically
// much faster than the shared bottleneck, so a train appears at the
// bottleneck as a nearly instantaneous batch of work — the "one or
// more FTP packets" whose service the probes accumulate behind.
type Bulk struct {
	sched     *sim.Scheduler
	factory   *sim.Factory
	flow      string
	size      int
	accessBps int64
	idle      Dist
	train     Dist
	out       sim.Receiver
	rng       *rand.Rand
	horizon   time.Duration
	seq       int
	remaining int // packets of the current train still to emit

	// b.startTrain and b.emitTrain, bound once so scheduling
	// allocates nothing.
	startFn, emitFn func()
}

// NewBulk returns a bulk-transfer source. size is the data packet wire
// size in bytes (the paper infers ≈488-byte FTP packets). idle is the
// distribution of think time in seconds between transfers; train is
// the distribution of packets per transfer.
func NewBulk(sched *sim.Scheduler, factory *sim.Factory, flow string, size int, accessBps int64, idle, train Dist, horizon time.Duration, seed int64, out sim.Receiver) *Bulk {
	if accessBps <= 0 {
		panic(fmt.Sprintf("traffic: bulk %q: non-positive access rate %d", flow, accessBps))
	}
	b := &Bulk{
		sched:     sched,
		factory:   factory,
		flow:      flow,
		size:      size,
		accessBps: accessBps,
		idle:      idle,
		train:     train,
		out:       out,
		rng:       rand.New(rand.NewSource(seed)),
		horizon:   horizon,
	}
	b.startFn, b.emitFn = b.startTrain, b.emitTrain
	return b
}

// Start implements Generator.
func (b *Bulk) Start() { b.scheduleTransfer() }

func (b *Bulk) scheduleTransfer() {
	idle := time.Duration(b.idle.Sample(b.rng) * float64(time.Second))
	if idle < 0 {
		idle = 0
	}
	at := b.sched.Now() + idle
	if at > b.horizon {
		return
	}
	b.sched.At(at, b.startFn)
}

func (b *Bulk) startTrain() {
	b.remaining = max(int(b.train.Sample(b.rng)), 1)
	b.emitTrain()
}

func (b *Bulk) emitTrain() {
	pkt := b.factory.New(b.flow, b.seq, b.size, b.sched.Now())
	b.seq++
	b.out.Receive(pkt)
	if b.remaining <= 1 {
		b.scheduleTransfer()
		return
	}
	// Next packet of the train after one access-link service time.
	gap := time.Duration(int64(b.size) * 8 * int64(time.Second) / b.accessBps)
	if b.sched.Now()+gap > b.horizon {
		return
	}
	b.remaining--
	b.sched.After(gap, b.emitFn)
}

// Interactive models Telnet-like traffic: small packets with
// exponential gaps. It is a thin wrapper over Poisson kept as its own
// type so experiment configurations read like the paper's taxonomy.
type Interactive struct{ *Poisson }

// NewInteractive returns an interactive (Telnet-like) source emitting
// size-byte packets with mean gap meanGap.
func NewInteractive(sched *sim.Scheduler, factory *sim.Factory, flow string, size int, meanGap time.Duration, horizon time.Duration, seed int64, out sim.Receiver) *Interactive {
	return &Interactive{NewPoisson(sched, factory, flow, size, meanGap, horizon, seed, out)}
}

// Mix starts a set of generators together.
type Mix []Generator

// Start implements Generator.
func (m Mix) Start() {
	for _, g := range m {
		g.Start()
	}
}
