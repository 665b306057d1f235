// Package tshist retains and judges the measurement plane's own time
// series. The paper's quantities are inherently temporal — ulp/clp,
// the compression-line μ fit, and the workload estimate evolve over a
// run — but /metrics and /statusz expose only instantaneous snapshots:
// drift between scrapes is invisible. tshist closes that gap
// in-process, with no external scrape infrastructure:
//
//   - Store samples an obs.Registry on a fixed interval into bounded
//     ring buffers — counters as rates, gauges raw, histograms as
//     tracked quantiles — so every -debug-addr process retains a
//     window of its own history (/vars/history, /dashboard).
//   - Rules (threshold, EWMA-deviation, stuck-series) judge any series
//     each sample, emitting otrace alert events, alerts.active{rule=}
//     gauges, and a /healthz readiness check on transitions.
//
// The steady path is allocation-free: snapshot buffers are reused,
// registry iteration uses the Each* visitors rather than snapshot
// maps, and rule evaluation is pure arithmetic over pre-bound series.
// Memory is bounded by MaxSeries × the ring capacity; series whose
// metrics are unregistered (per-job gauges after finalize) age out
// once their ring holds no live samples, making room for new ones.
package tshist

import (
	"math"
	"sync"
	"time"

	"netprobe/internal/obs"
	"netprobe/internal/otrace"
)

// Config configures a Store. The zero value of each field selects the
// documented default.
type Config struct {
	// Registry is the metrics registry to sample (default obs.Default).
	Registry *obs.Registry
	// Interval is the sampling period used by Run and recorded in
	// /vars/history (default 1s). Sample itself is clocked by its
	// caller; the interval only drives Run's ticker and the ring
	// capacity.
	Interval time.Duration
	// Window is the retention span; the ring holds Window/Interval
	// samples (default 10m, capacity clamped to [2, 100000]).
	Window time.Duration
	// MaxSeries bounds how many distinct series the store tracks
	// (default 1024). Beyond it, new series are dropped and counted —
	// once per distinct series, not per tick — in the history document's
	// series_dropped field.
	MaxSeries int
	// Rules are evaluated against matching series on every sample; see
	// DefaultRules.
	Rules []RuleSpec
	// Health, if non-nil, gains an "alerts" readiness check that fails
	// while any rule is firing.
	Health *obs.Health
	// Now supplies the sample clock (default time.Now); tests inject a
	// fake clock for byte-deterministic histories.
	Now func() time.Time
	// BeforeSample, if non-nil, runs at the top of every Sample —
	// commands pass obs.RunScrapeHooks so pull-derived gauges
	// (pipeline.unaccounted, source skew/age) are fresh in each row.
	BeforeSample func()
}

// seriesState is one retained series: a fixed-capacity ring of
// float64 samples aligned to the store's shared time ring. NaN marks a
// tick where the series' metric was absent; it serializes as null.
type seriesState struct {
	name string
	kind string // "gauge", "rate", or "quantile"
	vals []float64
	head int // next write position
	n    int // filled entries (≤ len(vals))

	pending float64 // value observed this tick
	seenSeq uint64  // tick that set pending
	missed  int     // consecutive ticks without a value
	dead    bool    // aged out; swept from the index
}

func (st *seriesState) push(v float64) {
	st.vals[st.head] = v
	st.head = (st.head + 1) % len(st.vals)
	if st.n < len(st.vals) {
		st.n++
	}
}

// at returns the k-th retained sample, k=0 the oldest.
func (st *seriesState) at(k int) float64 {
	return st.vals[(st.head-st.n+k+len(st.vals))%len(st.vals)]
}

// counterTrack derives a rate series from a counter: (cur−prev)/dt.
type counterTrack struct {
	rate *seriesState
	prev int64
	has  bool
}

// histTrack derives quantile and observation-rate series from a
// histogram, reusing one snapshot buffer across ticks.
type histTrack struct {
	p50, p99, rate *seriesState
	snap           obs.HistogramSnapshot
	prev           int64
	has            bool
}

// Store samples a registry into ring-buffer series and evaluates drift
// rules. Readers (the /vars/history and /dashboard handlers) take the
// same mutex the sampler holds — contention is one sampler tick per
// interval against occasional HTTP requests, so reads stay cheap.
type Store struct {
	reg      *obs.Registry
	interval time.Duration
	window   time.Duration
	capacity int
	max      int
	now      func() time.Time
	before   func()

	mu         sync.Mutex
	seq        uint64
	times      []int64 // shared timestamp ring (Unix ns)
	thead      int
	tn         int
	lastNs     int64
	dt         float64 // seconds since the previous sample
	byName     map[string]*seriesState
	list       []*seriesState
	ctrs       map[string]*counterTrack
	hists      map[string]*histTrack
	rules      []*boundRule
	alerts     otrace.Sink
	log        [64]Transition
	logLen     int
	logHead    int
	pendT      []Transition        // this tick's transitions, emitted after unlock
	dropped    int64               // series discarded at the MaxSeries cap
	droppedSet map[string]struct{} // names already counted into dropped
	deaths     bool                // a series died this tick; sweep the tracks

	// Bound callbacks, allocated once so Sample's registry iteration
	// does not construct method-value closures per tick.
	fnCounter func(string, *obs.Counter)
	fnGauge   func(string, *obs.Gauge)
	fnFGauge  func(string, *obs.FloatGauge)
	fnHist    func(string, *obs.Histogram)

	stopOnce sync.Once
	stopCh   chan struct{}
}

// New builds a Store from cfg and binds its rules; call Run (or
// Sample, in tests) to start filling it.
func New(cfg Config) (*Store, error) {
	if cfg.Registry == nil {
		cfg.Registry = obs.Default
	}
	if cfg.Interval <= 0 {
		cfg.Interval = time.Second
	}
	if cfg.Window <= 0 {
		cfg.Window = 10 * time.Minute
	}
	if cfg.MaxSeries <= 0 {
		cfg.MaxSeries = 1024
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	capacity := int(cfg.Window / cfg.Interval)
	if capacity < 2 {
		capacity = 2
	}
	if capacity > 100000 {
		capacity = 100000
	}
	s := &Store{
		reg:        cfg.Registry,
		interval:   cfg.Interval,
		window:     cfg.Window,
		capacity:   capacity,
		max:        cfg.MaxSeries,
		now:        cfg.Now,
		before:     cfg.BeforeSample,
		times:      make([]int64, capacity),
		byName:     make(map[string]*seriesState),
		ctrs:       make(map[string]*counterTrack),
		hists:      make(map[string]*histTrack),
		droppedSet: make(map[string]struct{}),
		stopCh:     make(chan struct{}),
	}
	s.fnCounter = s.sampleCounter
	s.fnGauge = s.sampleGauge
	s.fnFGauge = s.sampleFGauge
	s.fnHist = s.sampleHist
	for _, spec := range cfg.Rules {
		br, err := bindRule(spec, cfg.Registry)
		if err != nil {
			return nil, err
		}
		s.rules = append(s.rules, br)
	}
	if cfg.Health != nil {
		cfg.Health.AddCheck("alerts", s.alertsCheck)
	}
	return s, nil
}

// Interval reports the configured sampling period.
func (s *Store) Interval() time.Duration { return s.interval }

// Window reports the configured retention span.
func (s *Store) Window() time.Duration { return s.window }

// SetAlerts wires sink to receive otrace alert events on rule
// transitions (in addition to the always-on gauges and log records).
// Alerts are judgements about the measurement plane, not measurements:
// wire them to trace files, never into analyzer pipelines.
func (s *Store) SetAlerts(sink otrace.Sink) {
	s.mu.Lock()
	s.alerts = sink
	s.mu.Unlock()
}

// Run samples every Interval until Stop. Commands start it as a
// process-lifetime goroutine next to the debug server.
func (s *Store) Run() {
	t := time.NewTicker(s.interval)
	defer t.Stop()
	for {
		select {
		case <-s.stopCh:
			return
		case <-t.C:
			s.Sample()
		}
	}
}

// Stop ends Run; safe to call more than once.
func (s *Store) Stop() { s.stopOnce.Do(func() { close(s.stopCh) }) }

// Sample takes one sample of every registered metric, appends it to
// the rings, and evaluates the rules. Allocation-free on the steady
// path (no new series, no rule transitions).
func (s *Store) Sample() {
	if s.before != nil {
		s.before()
	}
	now := s.now()
	nowNs := now.UnixNano()
	s.mu.Lock()
	s.pendT = s.pendT[:0]
	s.seq++
	s.dt = 0
	if s.tn > 0 {
		s.dt = float64(nowNs-s.lastNs) / float64(time.Second)
	}
	s.times[s.thead] = nowNs
	s.thead = (s.thead + 1) % len(s.times)
	if s.tn < len(s.times) {
		s.tn++
	}
	s.lastNs = nowNs

	s.reg.EachGauge(s.fnGauge)
	s.reg.EachFloatGauge(s.fnFGauge)
	s.reg.EachCounter(s.fnCounter)
	s.reg.EachHistogram(s.fnHist)

	// Commit: every live series gets exactly one value per tick, so
	// each ring stays aligned with the time ring (a series' n samples
	// are always the n most recent timestamps).
	s.deaths = false
	kept := s.list[:0]
	for _, st := range s.list {
		if st.seenSeq == s.seq {
			st.push(st.pending)
			st.missed = 0
		} else {
			st.push(math.NaN())
			st.missed++
			if st.missed >= len(st.vals) {
				// Nothing live left in the ring: the metric was
				// unregistered a full window ago. Drop the series to make
				// room under MaxSeries.
				st.dead = true
				s.deaths = true
				delete(s.byName, st.name)
				continue
			}
		}
		kept = append(kept, st)
	}
	s.list = kept
	if s.deaths {
		s.sweepTracks()
	}
	s.evalRules(nowNs)
	// Emit transitions after releasing the mutex: the alert sink may do
	// file or network I/O, and a slow sink must not stall the sampler or
	// every reader of s.mu (/vars/history, /dashboard, the healthz
	// alerts check). Safe unlocked — Sample is single-goroutine, so
	// pendT has no other writer until the next tick.
	pend, sink := s.pendT, s.alerts
	s.mu.Unlock()
	if len(pend) > 0 {
		emitTransitions(pend, sink)
	}
}

// series returns the named series, creating it (and binding it to
// matching rules) on first use; nil once the MaxSeries cap is hit.
func (s *Store) series(name, kind string) *seriesState {
	st := s.byName[name]
	if st != nil {
		return st
	}
	if len(s.byName) >= s.max {
		s.drop(name)
		return nil
	}
	st = &seriesState{name: name, kind: kind, vals: make([]float64, s.capacity)}
	// Backfill the ticks this series missed so its ring stays aligned;
	// a series born mid-window reads as nulls before its first sample.
	for i := 1; i < s.tn; i++ {
		st.push(math.NaN())
	}
	s.byName[name] = st
	s.list = append(s.list, st)
	for _, r := range s.rules {
		r.bind(st)
	}
	return st
}

// drop counts a series discarded at the MaxSeries cap. Counted once
// per distinct name: a capped metric is re-offered every tick, and
// series_dropped should say how many series were lost, not how long
// they have been missing.
func (s *Store) drop(name string) {
	if _, ok := s.droppedSet[name]; ok {
		return
	}
	s.droppedSet[name] = struct{}{}
	s.dropped++
}

func (s *Store) set(name, kind string, v float64) *seriesState {
	st := s.series(name, kind)
	if st != nil {
		st.pending = v
		st.seenSeq = s.seq
	}
	return st
}

func (s *Store) sampleGauge(name string, g *obs.Gauge) {
	s.set(name, "gauge", float64(g.Value()))
}

func (s *Store) sampleFGauge(name string, g *obs.FloatGauge) {
	v := g.Value()
	if math.IsInf(v, 0) {
		v = math.NaN() // recorded as null; the series stays alive
	}
	s.set(name, "gauge", v)
}

func (s *Store) sampleCounter(name string, c *obs.Counter) {
	tr := s.ctrs[name]
	if tr == nil {
		st := s.series(name+":rate", "rate")
		if st == nil {
			return
		}
		tr = &counterTrack{rate: st}
		s.ctrs[name] = tr
	}
	cur := c.Value()
	// First sight (and zero-dt ticks) record null — a rate needs two
	// observations. The series still counts as seen so it only ages out
	// when the counter itself is unregistered.
	rate := math.NaN()
	if tr.has && s.dt > 0 {
		rate = float64(cur-tr.prev) / s.dt
	}
	tr.rate.pending, tr.rate.seenSeq = rate, s.seq
	tr.prev, tr.has = cur, true
}

func (s *Store) sampleHist(name string, h *obs.Histogram) {
	tr := s.hists[name]
	if tr == nil {
		// Reserve all three derived series atomically: creating p50 and
		// then hitting the MaxSeries cap on p99 would leave a half-tracked
		// histogram whose orphan series pushes NaN until it ages out, then
		// churns by being recreated.
		if s.max-len(s.byName) < 3 {
			s.drop(name + ":p50")
			s.drop(name + ":p99")
			s.drop(name + ":rate")
			return
		}
		tr = &histTrack{
			p50:  s.series(name+":p50", "quantile"),
			p99:  s.series(name+":p99", "quantile"),
			rate: s.series(name+":rate", "rate"),
		}
		s.hists[name] = tr
	}
	h.SnapshotInto(&tr.snap)
	p50, p99 := math.NaN(), math.NaN()
	if tr.snap.Count > 0 {
		p50, p99 = tr.snap.P50, tr.snap.P99
	}
	rate := math.NaN()
	if tr.has && s.dt > 0 {
		rate = float64(tr.snap.Count-tr.prev) / s.dt
	}
	tr.p50.pending, tr.p50.seenSeq = p50, s.seq
	tr.p99.pending, tr.p99.seenSeq = p99, s.seq
	tr.rate.pending, tr.rate.seenSeq = rate, s.seq
	tr.prev, tr.has = tr.snap.Count, true
}

// sweepTracks drops counter/histogram tracks and rule bindings whose
// series aged out. Runs only on ticks where a series died.
func (s *Store) sweepTracks() {
	for name, tr := range s.ctrs {
		if tr.rate.dead {
			delete(s.ctrs, name)
		}
	}
	for name, tr := range s.hists {
		// The three derived series are marked seen together every tick,
		// so they age out together.
		if tr.p50.dead {
			delete(s.hists, name)
		}
	}
	for _, r := range s.rules {
		r.sweep()
	}
}
