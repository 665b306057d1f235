package pipestat

import (
	"sort"
	"sync"

	"netprobe/internal/obs"
	"netprobe/internal/otrace"
)

// A Ledger holds the event-conservation accounts of one process: one
// Chain per fan-out branch of the event pipeline. Accounting is
// pull-based — chains register counter *sources* (closures over the
// pipeline's existing atomic counters), so keeping the books costs the
// hot path nothing; sums are computed only when somebody asks
// (a /metrics scrape, /statusz, a conservation test).
type Ledger struct {
	reg *obs.Registry

	mu     sync.Mutex
	names  []string
	chains map[string]*Chain
}

// NewLedger returns an empty ledger publishing its metrics to reg
// (nil means obs.Default).
func NewLedger(reg *obs.Registry) *Ledger {
	if reg == nil {
		reg = obs.Default
	}
	return &Ledger{reg: reg, chains: make(map[string]*Chain)}
}

// Default is the process-wide ledger the commands account into,
// publishing to obs.Default.
var Default = NewLedger(obs.Default)

// Chain returns the named chain, creating it on first use. A chain is
// one branch of the pipeline's fan-out — "online", "trace", "relay",
// "ingest" — and conservation holds per chain: every event produced
// into the chain head is eventually applied by a terminal or dropped
// by a counted lossy stage. (A global produced==applied invariant
// would be wrong the moment one event tees into two branches.)
func (l *Ledger) Chain(name string) *Chain {
	l.mu.Lock()
	defer l.mu.Unlock()
	c, ok := l.chains[name]
	if !ok {
		c = &Chain{name: name, ledger: l}
		l.chains[name] = c
		l.names = append(l.names, name)
	}
	return c
}

// Unaccounted sums the conservation residuals of every chain:
// Σ max(0, produced − applied − drops). Zero once the pipeline has
// drained; transiently positive while events sit in queues. It is
// allocation-free — it runs on every /metrics scrape and every
// time-series sample — so it iterates the chain map under the lock
// rather than snapshotting it.
func (l *Ledger) Unaccounted() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var total int64
	for _, c := range l.chains {
		total += c.Unaccounted()
	}
	return total
}

// Register wires the ledger into the debug plane: the
// pipeline.unaccounted gauge is refreshed on every /metrics scrape,
// and /statusz gains a "pipeline" section with the full per-chain
// books. Call once, after the chains a command uses exist (late-made
// chains are still picked up — registration captures the ledger, not
// its contents).
func (l *Ledger) Register() {
	gauge := l.reg.Gauge("pipeline.unaccounted")
	obs.OnScrape(func() { gauge.Set(l.Unaccounted()) })
	obs.StatusSection("pipeline", func() any { return l.Snapshot() })
}

func (l *Ledger) snapshotChains() []*Chain {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]*Chain, 0, len(l.names))
	for _, n := range l.names {
		out = append(out, l.chains[n])
	}
	return out
}

// Snapshot captures every chain's books for /statusz and tests.
func (l *Ledger) Snapshot() LedgerSnapshot {
	chains := l.snapshotChains()
	s := LedgerSnapshot{Chains: make([]ChainSnapshot, 0, len(chains))}
	for _, c := range chains {
		cs := c.Snapshot()
		s.Chains = append(s.Chains, cs)
		s.Unaccounted += cs.Unaccounted
	}
	return s
}

// LedgerSnapshot is the /statusz "pipeline" section.
type LedgerSnapshot struct {
	Unaccounted int64           `json:"unaccounted"`
	Chains      []ChainSnapshot `json:"chains,omitempty"`
}

// ChainSnapshot is one chain's books: the head count and each
// terminal/lossy stage's count by name.
type ChainSnapshot struct {
	Name        string           `json:"name"`
	Produced    int64            `json:"produced"`
	Applied     map[string]int64 `json:"applied,omitempty"`
	Dropped     map[string]int64 `json:"dropped,omitempty"`
	Unaccounted int64            `json:"unaccounted"`
}

// counterSource is one registered account: a named closure over a
// pipeline counter.
type counterSource struct {
	name string
	fn   func() int64
}

// Chain is one fan-out branch's account book plus its tracing taps.
// Registration methods (Produced/Applied/Dropped) are called during
// pipeline construction; the sink wrappers (Produce/Stage) run on the
// event hot path and touch only atomic counters.
type Chain struct {
	name   string
	ledger *Ledger

	mu       sync.Mutex
	produced []counterSource
	applied  []counterSource
	dropped  []counterSource
}

// Name reports the chain's name.
func (c *Chain) Name() string { return c.name }

// Produced registers a head account: fn reports how many events have
// entered the chain through the named source. Chains whose head is a
// Produce sink don't need this; chains fed by an external counter (a
// relay's ingress totals) do.
func (c *Chain) Produced(name string, fn func() int64) {
	c.add(&c.produced, name, fn)
}

// Applied registers a terminal account: fn reports how many events the
// named consumer has fully processed (an engine's analyzers, a trace
// writer's event count, a wire sender's sent count).
func (c *Chain) Applied(name string, fn func() int64) {
	c.add(&c.applied, name, fn)
}

// Dropped registers a lossy-stage account: fn reports how many events
// the named stage has discarded (a bounded queue, a bus subscription,
// a failing sender).
func (c *Chain) Dropped(name string, fn func() int64) {
	c.add(&c.dropped, name, fn)
}

func (c *Chain) add(list *[]counterSource, name string, fn func() int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, s := range *list {
		if s.name == name { // re-wiring across runs replaces the account
			(*list)[i].fn = fn
			return
		}
	}
	*list = append(*list, counterSource{name: name, fn: fn})
}

// Produce wraps next as the chain head: each event is stamped (if no
// earlier stage stamped it), counted into the chain's produced account
// and the pipeline.events{chain=,stage=produced} counter, and
// forwarded. The counter doubles as the ledger account, so a chain
// headed by Produce needs no explicit Produced registration.
func (c *Chain) Produce(next otrace.Sink) otrace.Sink {
	ctr := c.ledger.reg.Counter(obs.Label("pipeline.events", "chain", c.name, "stage", StageProduced))
	c.Produced(StageProduced, ctr.Value)
	return produceSink{next: next, ctr: ctr}
}

type produceSink struct {
	next otrace.Sink
	ctr  *obs.Counter
}

func (p produceSink) Emit(ev otrace.Event) {
	if ev.Stamp == 0 {
		ev.Stamp = Now()
	}
	p.ctr.Inc()
	p.next.Emit(ev)
}

// Stage wraps next as a traced intermediate hop: each event passing
// through counts into pipeline.events{chain=,stage=} and observes its
// lag behind the producer stamp into pipeline.lag{chain=,stage=}
// (seconds). Stage taps trace; they do not account — pair them with
// Applied/Dropped registrations on the stage's own counters.
func (c *Chain) Stage(stage string, next otrace.Sink) otrace.Sink {
	return stageSink{
		next: next,
		ctr:  c.ledger.reg.Counter(obs.Label("pipeline.events", "chain", c.name, "stage", stage)),
		lag:  c.ledger.reg.Histogram(obs.Label("pipeline.lag", "chain", c.name, "stage", stage), nil),
	}
}

type stageSink struct {
	next otrace.Sink
	ctr  *obs.Counter
	lag  *obs.Histogram
}

func (s stageSink) Emit(ev otrace.Event) {
	s.ctr.Inc()
	if ev.Stamp != 0 {
		s.lag.Observe(LagSeconds(ev))
	}
	s.next.Emit(ev)
}

func sumSources(list []counterSource) (int64, map[string]int64) {
	if len(list) == 0 {
		return 0, nil
	}
	m := make(map[string]int64, len(list))
	var total int64
	for _, s := range list {
		v := s.fn()
		m[s.name] += v
		total += v
	}
	return total, m
}

// sumTotal is the map-free sum for the allocation-free Unaccounted
// path.
func sumTotal(list []counterSource) int64 {
	var total int64
	for _, s := range list {
		total += s.fn()
	}
	return total
}

// Unaccounted is this chain's conservation residual:
// max(0, produced − Σ applied − Σ dropped). The floor at zero keeps
// scrape-time skew (drop counters read after the produced counter
// advanced) from reporting a negative book; the conservation tests
// check the exact equality at quiescence via Snapshot.
func (c *Chain) Unaccounted() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	p := sumTotal(c.produced)
	a := sumTotal(c.applied)
	d := sumTotal(c.dropped)
	if u := p - a - d; u > 0 {
		return u
	}
	return 0
}

// Snapshot captures the chain's books. Unlike Unaccounted it reports
// the raw residual (which may be negative under scrape-time skew, and
// must be exactly zero at quiescence).
func (c *Chain) Snapshot() ChainSnapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, _ := sumSources(c.produced)
	a, applied := sumSources(c.applied)
	d, dropped := sumSources(c.dropped)
	return ChainSnapshot{
		Name:        c.name,
		Produced:    p,
		Applied:     applied,
		Dropped:     dropped,
		Unaccounted: p - a - d,
	}
}

// Stages reports the registered account names, for tests.
func (c *Chain) Stages() (produced, applied, dropped []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	name := func(list []counterSource) []string {
		out := make([]string, len(list))
		for i, s := range list {
			out[i] = s.name
		}
		sort.Strings(out)
		return out
	}
	return name(c.produced), name(c.applied), name(c.dropped)
}
