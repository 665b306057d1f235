package pipestat

import (
	"sort"
	"sync"
	"time"

	"netprobe/internal/obs"
	"netprobe/internal/otrace"
)

// Monitor is the pipeline's engine-side probe: an analyzer (it
// satisfies online.Analyzer without importing the package) that closes
// a chain's ledger at the applied stage, observes produced→applied
// lag, and tracks per-job liveness for /statusz — event counts, time
// since the last event, and whether the job's stream has been
// finalized by its job_finish bracket.
//
// HandleEvent runs on the engine's single dispatch goroutine;
// Snapshot, Applied, and Jobs may be called concurrently.
type Monitor struct {
	chain *Chain
	lag   *obs.Histogram // pipeline.lag{chain=,stage=applied}

	mu      sync.Mutex
	applied int64
	jobs    map[string]*jobState
	order   []string
}

type jobState struct {
	events    int64
	lastNs    int64 // wall clock of the newest event, Unix nanos
	finalized bool
}

// NewMonitor returns a Monitor accounting into chain: it registers
// itself as the chain's "analyzers" terminal, so once the monitor is
// installed the chain's books close at the engine. The produced side
// is the chain's Produce head (or an explicit Produced registration).
func NewMonitor(chain *Chain) *Monitor {
	m := &Monitor{
		chain: chain,
		lag:   chain.ledger.reg.Histogram(obs.Label("pipeline.lag", "chain", chain.name, "stage", StageApplied), nil),
		jobs:  make(map[string]*jobState),
	}
	chain.Applied("analyzers", m.Applied)
	return m
}

// Name implements online.Analyzer.
func (m *Monitor) Name() string { return "pipeline" }

// HandleEvent implements online.Analyzer: counts the event as applied,
// observes its dispatch lag, and updates the job liveness table.
func (m *Monitor) HandleEvent(ev otrace.Event) {
	now := Now()
	if ev.Stamp != 0 {
		m.lag.Observe(lagSeconds(now, ev.Stamp))
	}
	key := "default"
	if ev.Job != "" {
		key = ev.Job
	}
	m.mu.Lock()
	m.applied++
	j, ok := m.jobs[key]
	if !ok {
		j = &jobState{}
		m.jobs[key] = j
		m.order = append(m.order, key)
	}
	j.events++
	j.lastNs = now
	if ev.Ev == otrace.KindJobFinish {
		j.finalized = true
	}
	m.mu.Unlock()
}

// Applied reports how many events the monitor's engine has dispatched
// through it — the chain's applied-side account.
func (m *Monitor) Applied() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.applied
}

// JobStatus is one job's liveness row.
type JobStatus struct {
	Job          string  `json:"job"`
	Events       int64   `json:"events"`
	LastEventAge float64 `json:"last_event_age_sec"`
	Finalized    bool    `json:"finalized"`
}

// Jobs reports every job's liveness, in first-seen order.
func (m *Monitor) Jobs() []JobStatus {
	now := Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]JobStatus, 0, len(m.order))
	for _, key := range m.order {
		j := m.jobs[key]
		out = append(out, JobStatus{
			Job:          key,
			Events:       j.events,
			LastEventAge: float64(now-j.lastNs) / float64(time.Second),
			Finalized:    j.finalized,
		})
	}
	return out
}

// Active reports how many jobs have started but not finalized.
func (m *Monitor) Active() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, j := range m.jobs {
		if !j.finalized {
			n++
		}
	}
	return n
}

// LastEventAge is the time since any event was applied; it reports
// false when no event has arrived yet.
func (m *Monitor) LastEventAge() (time.Duration, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var newest int64
	for _, j := range m.jobs {
		if j.lastNs > newest {
			newest = j.lastNs
		}
	}
	if newest == 0 {
		return 0, false
	}
	return time.Duration(Now() - newest), true
}

// MonitorSnapshot is the monitor's /online and /statusz document.
type MonitorSnapshot struct {
	Chain      string      `json:"chain"`
	Applied    int64       `json:"applied"`
	ActiveJobs int         `json:"active_jobs"`
	Jobs       []JobStatus `json:"jobs,omitempty"`
}

// Snapshot implements online.Analyzer.
func (m *Monitor) Snapshot() any {
	jobs := m.Jobs()
	sort.SliceStable(jobs, func(i, k int) bool { return jobs[i].Job < jobs[k].Job })
	active := 0
	for _, j := range jobs {
		if !j.Finalized {
			active++
		}
	}
	return MonitorSnapshot{
		Chain:      m.chain.Name(),
		Applied:    m.Applied(),
		ActiveJobs: active,
		Jobs:       jobs,
	}
}

// MergeSnapshots implements the online pool's Merger: per-shard
// monitor snapshots combine by summing applied/active counts and
// concatenating the per-job rows (jobs are disjoint across shards),
// re-sorted by job name. Note the ledger side does not merge this way:
// each shard's monitor registers the same "analyzers" account name on
// the shared chain and registration replaces, so a sharded wiring must
// re-register one summed closure after creating its monitors (see
// cmd/netdyn-relay).
func (m *Monitor) MergeSnapshots(parts []any) any {
	out := MonitorSnapshot{Chain: m.chain.Name()}
	for _, p := range parts {
		s, ok := p.(MonitorSnapshot)
		if !ok {
			continue
		}
		out.Applied += s.Applied
		out.ActiveJobs += s.ActiveJobs
		out.Jobs = append(out.Jobs, s.Jobs...)
	}
	sort.SliceStable(out.Jobs, func(i, k int) bool { return out.Jobs[i].Job < out.Jobs[k].Job })
	return out
}
