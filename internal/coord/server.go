package coord

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"netprobe/internal/obs"
	"netprobe/internal/otrace"
	"netprobe/internal/source"
)

// State is a job instance's lifecycle position.
type State string

// The job states. pending → running → completed is the happy path;
// running → pending happens when the executing agent disconnects, its
// lease expires, or the execution deadline passes (and attempts
// remain), running/pending → failed when attempts run out or the agent
// reports an execution error on the last attempt.
const (
	StatePending   State = "pending"
	StateRunning   State = "running"
	StateCompleted State = "completed"
	StateFailed    State = "failed"
)

// Config configures a Coordinator.
type Config struct {
	// Specs are submitted at startup: one instance per one-shot spec,
	// a scheduler goroutine per recurring (Every > 0) spec. With
	// Recovered set, one-shot specs whose instances already exist in
	// the recovered table are not re-submitted, and recurring specs
	// resume at the recovered next index (so instance seeds continue
	// the Seed+n sequence across the restart).
	Specs []Spec
	// MaxAttempts bounds how many times one instance is dispatched
	// before it fails (agent loss or execution error re-queues it).
	// Default 3.
	MaxAttempts int
	// StaleAfter, when positive, marks a connected agent silent for
	// longer than this as stale in Status. Zero disables.
	StaleAfter time.Duration

	// Journal, if non-nil, records every job-table transition as a
	// write-ahead frame (see OpenJournal). The coordinator appends;
	// the caller owns the journal's lifecycle and closes it after
	// Close.
	Journal *Journal
	// Recovered, if non-nil, is a replayed journal whose table the
	// coordinator takes over before Specs are submitted (the caller
	// must not use it afterwards). Recovered running instances
	// are re-queued (their agents are gone until they redial), held
	// back by RecoveryGrace so an agent that finished the work during
	// the outage can settle it with a resent completion instead of a
	// second execution.
	Recovered *Recovered
	// RecoveryGrace holds recovered running→pending instances out of
	// dispatch for this long (default 1s; negative re-dispatches
	// immediately).
	RecoveryGrace time.Duration

	// LeaseTimeout, when positive, evicts a connected agent whose last
	// frame (heartbeats count) is older than this: its connection is
	// closed and its running instances re-queued. Half-dead agents —
	// TCP conn open, process wedged — otherwise hold their instances
	// forever. Use a multiple of the agents' heartbeat interval.
	LeaseTimeout time.Duration
	// DeadlineSlack pads a spec's Deadline before the coordinator
	// forcibly re-queues a running instance (default 5s). The agent
	// enforces the deadline itself first; the coordinator's sweep is
	// the backstop for agents that never report back.
	DeadlineSlack time.Duration
	// SweepEvery is the lease/deadline sweep interval (default
	// min(LeaseTimeout/4, 250ms), floored at 10ms).
	SweepEvery time.Duration

	// Metrics, if non-nil, exports coord.jobs.{pending,running,
	// completed} and coord.agents.connected gauges (refreshed per
	// scrape), the coord.jobs.starved gauge (pending count while zero
	// agents are connected — the agents_lost alert input), and the
	// coord.jobs.{requeued,failed} and coord.agents.evicted counters.
	Metrics *obs.Registry
	// Logf, if non-nil, logs agent and job lifecycle.
	Logf func(format string, args ...any)
}

// agentConn is one registered agent.
type agentConn struct {
	name      string
	capacity  int
	send      *source.Sender
	conn      net.Conn
	running   map[string]bool
	completed int64
	evictions int64
	connected bool
	lastNs    atomic.Int64
}

// Coordinator owns the job table and schedules instances onto
// registered agents. Create one with Serve.
type Coordinator struct {
	ln     net.Listener
	cfg    Config
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu         sync.Mutex
	cond       *sync.Cond
	t          *table
	queue      []string // pending instance ids, FIFO
	agents     map[string]*agentConn
	agentOrder []string
	rr         int // round-robin dispatch cursor
	closed     bool
	killed     bool // Kill: stop journaling, teardown is abrupt

	// The robustness counters; mirrored to cRequeued/cFailed/cEvicted
	// when Metrics is set.
	requeued int64
	failed   int64
	evicted  int64

	cRequeued *obs.Counter
	cFailed   *obs.Counter
	cEvicted  *obs.Counter

	// closedFlag quiesces the per-scrape gauge hook after Close (scrape
	// hooks are process-lifetime; coordinators in tests are not).
	closedFlag atomic.Bool
}

// Serve starts a coordinator accepting agent connections on ln,
// takes over the table of cfg.Recovered, and submits cfg.Specs. It
// returns immediately; Close shuts it down.
func Serve(ln net.Listener, cfg Config) *Coordinator {
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	if cfg.RecoveryGrace == 0 {
		cfg.RecoveryGrace = time.Second
	}
	if cfg.DeadlineSlack <= 0 {
		cfg.DeadlineSlack = 5 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	c := &Coordinator{
		ln:     ln,
		cfg:    cfg,
		t:      newTable(),
		agents: make(map[string]*agentConn),
	}
	c.cond = sync.NewCond(&c.mu)
	c.ctx, c.cancel = context.WithCancel(context.Background())
	if cfg.Metrics != nil {
		c.exportMetrics(cfg.Metrics)
	}
	var recovered map[string]bool
	if cfg.Recovered != nil {
		recovered = c.adopt(cfg.Recovered)
	}
	for _, s := range cfg.Specs {
		if s.Every > 0 {
			start := c.t.NextIndex[s.Name]
			if s.Runs > 0 && start >= s.Runs {
				continue // the recovered table already holds every run
			}
			c.wg.Add(1)
			go c.schedule(s, start)
			continue
		}
		if recovered[s.Name] {
			continue // instance survives in the recovered table
		}
		c.Submit(s)
	}
	c.wg.Add(1)
	go c.acceptLoop()
	c.wg.Add(1)
	go c.sweeper()
	return c
}

// adopt takes over a replayed journal's table and returns the names of
// the specs it holds instances of. Pending instances re-enter the queue
// as they were; running instances are re-queued (their agents are not
// connected yet) behind the recovery grace, so an agent that finished
// the instance during the outage gets a window to settle it with its
// resent ctrl_complete before anything re-executes.
func (c *Coordinator) adopt(rec *Recovered) map[string]bool {
	now := time.Now().UnixNano()
	grace := int64(c.cfg.RecoveryGrace)
	if grace < 0 {
		grace = 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = rec.table
	specs := make(map[string]bool)
	for _, j := range c.t.Jobs {
		specs[j.Spec.Name] = true
		switch j.State {
		case StatePending:
			c.queue = append(c.queue, j.ID)
		case StateRunning:
			c.commitLocked(requeueRecord(j.ID, "coordinator restart", j.Probes, j.Losses))
			j.notBeforeNs = now + grace
			c.queue = append(c.queue, j.ID)
			c.bumpRequeuedLocked()
			c.cfg.Logf("coord: job %s re-queued after recovery (attempt %d, grace %s)",
				j.ID, j.Attempts, c.cfg.RecoveryGrace)
		case StateFailed:
			// Keep the failure counter consistent with the table across
			// restarts: a counter that forgot pre-crash failures would
			// diverge from coord.jobs counts for the rest of the process.
			c.failed++
		}
	}
	if c.cFailed != nil && c.failed > 0 {
		c.cFailed.Add(c.failed)
	}
	jc := c.t.counts
	c.cfg.Logf("coord: recovered %d jobs (%d pending, %d completed, %d failed) of %d specs from journal",
		jc.Total(), jc.Pending, jc.Completed, jc.Failed, len(specs))
	return specs
}

// Addr reports the listener's address (useful with ":0").
func (c *Coordinator) Addr() net.Addr { return c.ln.Addr() }

// schedule runs one recurring spec from recurrence index start: an
// instance now, then one per tick, each with Seed+n, until Runs
// instances or shutdown.
func (c *Coordinator) schedule(s Spec, start int) {
	defer c.wg.Done()
	t := time.NewTicker(s.Every.D())
	defer t.Stop()
	for n := start; ; n++ {
		inst := s
		inst.Seed = s.Seed + int64(n)
		c.submitIndexed(inst, n)
		if s.Runs > 0 && n+1 >= s.Runs {
			return
		}
		select {
		case <-c.ctx.Done():
			return
		case <-t.C:
		}
	}
}

// Submit queues one instance of s and returns its id: the spec name
// if unused, otherwise name#<n>. Dispatch happens immediately if an
// agent has capacity.
func (c *Coordinator) Submit(s Spec) string {
	return c.submitIndexed(s, 0)
}

func (c *Coordinator) submitIndexed(s Spec, index int) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	name := s.Name
	if name == "" {
		name = "job"
	}
	id := name
	for n := c.t.MaxSeq + 1; c.t.byID[id] != nil; n++ {
		id = fmt.Sprintf("%s#%d", name, n)
	}
	c.commitLocked(submitRecord(id, index, s, time.Now().UnixNano()))
	c.queue = append(c.queue, id)
	c.dispatchLocked()
	c.cond.Broadcast()
	return id
}

// commitLocked journals one transition frame and then applies it to
// the table, so the journal is written ahead of the table by
// construction. After Kill nothing is journaled (the process is dead
// as far as the journal knows) but the in-memory table still moves. A
// journal that outgrows its bound is compacted to the table's
// snapshot. Callers hold c.mu.
func (c *Coordinator) commitLocked(ev otrace.Event) {
	jn := c.cfg.Journal
	journaled := jn != nil && !c.killed
	if journaled {
		jn.Append(ev)
	}
	c.t.apply(ev)
	if journaled && jn.ShouldCompact() {
		if err := jn.Compact(c.t.snapshot()); err != nil {
			c.cfg.Logf("coord: journal compaction failed: %v", err)
		}
	}
}

// acceptLoop accepts agent connections until the listener closes.
func (c *Coordinator) acceptLoop() {
	defer c.wg.Done()
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			if c.ctx.Err() == nil && !errors.Is(err, net.ErrClosed) {
				c.cfg.Logf("coord: accept: %v", err)
			}
			return
		}
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			c.handle(conn)
		}()
	}
}

// handle speaks the control protocol with one agent connection:
// register first, then accept/complete/heartbeat frames until the
// stream ends, with job frames pushed from dispatch on the same
// connection.
func (c *Coordinator) handle(conn net.Conn) {
	defer conn.Close() //nolint:errcheck // read side
	stop := context.AfterFunc(c.ctx, func() {
		conn.SetReadDeadline(time.Unix(1, 0)) //nolint:errcheck // best effort
	})
	defer stop()
	fr, err := otrace.NewFrameReader(conn)
	if err != nil {
		c.cfg.Logf("coord: %s: %v", conn.RemoteAddr(), err)
		return
	}
	first, err := fr.Next()
	if err != nil || first.Ev != otrace.KindCtrlRegister {
		c.cfg.Logf("coord: %s: expected register frame", conn.RemoteAddr())
		return
	}
	a := c.register(first.Name, first.Count, source.NewSender(conn), conn)
	c.cfg.Logf("coord: agent %s connected (capacity %d)", a.name, a.capacity)
	c.dispatch()
	for {
		ev, err := fr.Next()
		if err != nil {
			break
		}
		a.lastNs.Store(time.Now().UnixNano())
		switch ev.Ev {
		case otrace.KindHeartbeat:
			// Liveness only: renews the agent's lease.
		case otrace.KindCtrlAccept:
			c.markAccepted(a, ev.Job)
		case otrace.KindCtrlComplete:
			c.complete(a, ev)
		}
	}
	c.disconnect(a)
	c.cfg.Logf("coord: agent %s disconnected", a.name)
}

// register adds (or revives) the agent's table entry. A reconnecting
// agent reuses its row — totals survive the gap; a name collision with
// a *connected* agent gets a disambiguating suffix.
func (c *Coordinator) register(name string, capacity int, send *source.Sender, conn net.Conn) *agentConn {
	if name == "" {
		name = "agent"
	}
	if capacity < 1 {
		capacity = 1
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	base := name
	a, ok := c.agents[name]
	for n := 2; ok && a.connected; n++ {
		name = fmt.Sprintf("%s@%d", base, n)
		a, ok = c.agents[name]
	}
	if !ok {
		a = &agentConn{name: name, running: make(map[string]bool)}
		c.agents[name] = a
		c.agentOrder = append(c.agentOrder, name)
	}
	a.send = send
	a.conn = conn
	a.capacity = capacity
	a.connected = true
	a.lastNs.Store(time.Now().UnixNano())
	return a
}

// dispatch assigns queued instances to connected agents with free
// capacity, round-robin so a fleet shares load evenly.
func (c *Coordinator) dispatch() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dispatchLocked()
}

func (c *Coordinator) dispatchLocked() {
	if c.killed {
		return // a crashed process dispatches nothing
	}
	now := time.Now().UnixNano()
	for i := 0; i < len(c.queue); {
		id := c.queue[i]
		j := c.t.byID[id]
		if j == nil || j.State != StatePending {
			// A late completion settled the instance while it was queued.
			c.queue = append(c.queue[:i], c.queue[i+1:]...)
			continue
		}
		if j.notBeforeNs > now {
			i++ // recovery grace: the sweeper retries after it passes
			continue
		}
		a := c.pickLocked(j.avoid)
		if a == nil {
			return
		}
		c.queue = append(c.queue[:i], c.queue[i+1:]...)
		c.commitLocked(dispatchRecord(id, a.name, j.Attempts+1))
		j.accepted = false
		j.notBeforeNs = 0
		j.avoid = ""
		j.startedNs = now
		a.running[id] = true
		// Emit does not write the socket under c.mu: it queues the frame
		// for the Sender's flush goroutine, which writes frames in Emit
		// order, so the job table and the wire stay in the same order.
		// Err thus reports only the failure of an earlier flush; a
		// failure of this frame is caught by the connection's read loop
		// (disconnect) or by the next dispatch.
		a.send.Emit(jobEvent(id, j.Spec))
		if a.send.Err() != nil {
			c.retireLocked(a, "agent send failed")
		}
	}
}

// pickLocked finds the next connected agent with free capacity,
// starting after the last pick. An agent named avoid is picked only
// when no other agent has room.
func (c *Coordinator) pickLocked(avoid string) *agentConn {
	n := len(c.agentOrder)
	var fallback *agentConn
	fallbackAt := 0
	for i := 0; i < n; i++ {
		idx := (c.rr + i) % n
		a := c.agents[c.agentOrder[idx]]
		if !a.connected || len(a.running) >= a.capacity {
			continue
		}
		if a.name == avoid {
			if fallback == nil {
				fallback, fallbackAt = a, idx
			}
			continue
		}
		c.rr = (idx + 1) % n
		return a
	}
	if fallback != nil {
		c.rr = (fallbackAt + 1) % n
	}
	return fallback
}

// markAccepted records the agent's ack for the lifecycle trail.
func (c *Coordinator) markAccepted(a *agentConn, id string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if j := c.t.byID[id]; j != nil && j.Agent == a.name && j.State == StateRunning {
		j.accepted = true
	}
}

// complete settles one instance. Settlement is exactly-once per
// instance id: the first success wins (even one arriving late, from an
// agent whose disconnect or a coordinator restart already re-queued
// the instance — the work happened, so settling beats re-executing),
// and anything after settlement is a deduplicated no-op. Every
// completion is acked so the reporting agent can drop it from its
// resend buffer, duplicates included.
func (c *Coordinator) complete(a *agentConn, ev otrace.Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.killed {
		// A crashed process acks nothing: the settlement could not be
		// journaled, so the agent must keep the report to resend it to
		// the recovered coordinator.
		return
	}
	a.send.Emit(ackEvent(ev.Job))
	delete(a.running, ev.Job)
	j := c.t.byID[ev.Job]
	if j == nil {
		return // unknown id (journal-less restart): nothing to settle
	}
	switch {
	case j.State == StateCompleted || j.State == StateFailed:
		return // duplicate after settlement
	case ev.Fault != "" && (j.State == StatePending || j.Agent != a.name):
		// An error from an attempt that is no longer current: the
		// re-queue (disconnect, eviction, deadline, or recovery) or the
		// re-dispatch already accounted for it.
		return
	case ev.Fault != "":
		c.requeueOrFailLocked(j, ev.Fault, a.name, ev.Probes, ev.Losses)
	case j.State == StatePending:
		// Re-queued, and the original attempt's success arrived
		// afterwards: it settles the instance before anything re-executes.
		c.removeQueuedLocked(j.ID)
		c.settleLocked(j, a, ev)
	default:
		// The executing agent reporting in, or a success from an agent the
		// instance was re-dispatched away from: the first success wins and
		// the later report from the current holder dedupes above.
		if cur := c.agents[j.Agent]; j.Agent != a.name && cur != nil {
			delete(cur.running, j.ID)
		}
		c.settleLocked(j, a, ev)
	}
	c.dispatchLocked()
	c.cond.Broadcast()
}

// settleLocked marks one instance completed. The record names the
// settling agent only when it is not the row's current one, so the
// common settlement journals no agent name. Callers hold c.mu.
func (c *Coordinator) settleLocked(j *JobRow, a *agentConn, ev otrace.Event) {
	agent := ""
	if a.name != j.Agent {
		agent = a.name
	}
	c.commitLocked(completeRecord(j.ID, agent, ev.Probes, ev.Losses))
	j.finishedNs = time.Now().UnixNano()
	a.completed++
}

// requeueOrFailLocked returns a running instance to the queue, or
// fails it when attempts ran out, recording the ending attempt's
// probe and loss counts. Callers hold c.mu.
func (c *Coordinator) requeueOrFailLocked(j *JobRow, reason, agent string, probes, losses int) {
	if j.Attempts >= c.cfg.MaxAttempts {
		c.commitLocked(failRecord(j.ID, reason, probes, losses))
		j.finishedNs = time.Now().UnixNano()
		c.bumpFailedLocked()
		c.cfg.Logf("coord: job %s failed after %d attempts: %s", j.ID, j.Attempts, reason)
		return
	}
	c.commitLocked(requeueRecord(j.ID, reason, probes, losses))
	j.avoid = agent
	c.queue = append(c.queue, j.ID)
	c.bumpRequeuedLocked()
	c.cfg.Logf("coord: job %s re-queued (attempt %d, agent %s): %s",
		j.ID, j.Attempts, agent, reason)
}

// removeQueuedLocked drops one id from the pending queue. Callers hold
// c.mu.
func (c *Coordinator) removeQueuedLocked(id string) {
	for i, q := range c.queue {
		if q == id {
			c.queue = append(c.queue[:i], c.queue[i+1:]...)
			return
		}
	}
}

func (c *Coordinator) bumpRequeuedLocked() {
	c.requeued++
	if c.cRequeued != nil {
		c.cRequeued.Inc()
	}
}

func (c *Coordinator) bumpFailedLocked() {
	c.failed++
	if c.cFailed != nil {
		c.cFailed.Inc()
	}
}

func (c *Coordinator) bumpEvictedLocked() {
	c.evicted++
	if c.cEvicted != nil {
		c.cEvicted.Inc()
	}
}

// disconnect retires an agent whose stream ended.
func (c *Coordinator) disconnect(a *agentConn) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.retireLocked(a, "agent "+a.name+" lost")
	c.dispatchLocked()
	c.cond.Broadcast()
}

// retireLocked marks the agent disconnected and re-queues (or fails)
// its running instances. Callers hold c.mu.
func (c *Coordinator) retireLocked(a *agentConn, reason string) {
	if !a.connected {
		return
	}
	a.connected = false
	a.send.Close() //nolint:errcheck // stream already ending
	for id := range a.running {
		delete(a.running, id)
		j := c.t.byID[id]
		if j == nil || j.State != StateRunning {
			continue
		}
		c.requeueOrFailLocked(j, reason, a.name, j.Probes, j.Losses)
	}
}

// sweeper periodically enforces leases, deadlines, and deferred
// (recovery-grace) dispatch.
func (c *Coordinator) sweeper() {
	defer c.wg.Done()
	tick := c.cfg.SweepEvery
	if tick <= 0 {
		tick = 250 * time.Millisecond
		if lt := c.cfg.LeaseTimeout; lt > 0 && lt/4 < tick {
			tick = lt / 4
		}
		if tick < 10*time.Millisecond {
			tick = 10 * time.Millisecond
		}
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-c.ctx.Done():
			return
		case <-t.C:
			c.sweep()
		}
	}
}

// sweep is one lease/deadline pass.
func (c *Coordinator) sweep() {
	now := time.Now().UnixNano()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	if lt := int64(c.cfg.LeaseTimeout); lt > 0 {
		for _, name := range c.agentOrder {
			a := c.agents[name]
			if !a.connected || now-a.lastNs.Load() <= lt {
				continue
			}
			a.evictions++
			c.bumpEvictedLocked()
			c.cfg.Logf("coord: agent %s lease expired (silent %.1fs), evicting",
				a.name, float64(now-a.lastNs.Load())/float64(time.Second))
			// retireLocked closes the Sender, which closes the half-dead
			// TCP conn, unblocking handle()'s read; the later disconnect is
			// an idempotent no-op.
			c.retireLocked(a, "agent "+a.name+" lease expired")
		}
	}
	for _, name := range c.agentOrder {
		a := c.agents[name]
		for id := range a.running {
			j := c.t.byID[id]
			if j == nil || j.State != StateRunning {
				continue
			}
			dl := int64(j.Spec.Deadline)
			if dl <= 0 || now-j.startedNs <= dl+int64(c.cfg.DeadlineSlack) {
				continue
			}
			delete(a.running, id)
			c.requeueOrFailLocked(j, "deadline exceeded (agent never reported)", a.name, j.Probes, j.Losses)
		}
	}
	c.dispatchLocked()
	c.cond.Broadcast()
}

// JobCounts aggregates the job table by state.
type JobCounts struct {
	Pending   int `json:"pending"`
	Running   int `json:"running"`
	Completed int `json:"completed"`
	Failed    int `json:"failed"`
}

// Total sums every state.
func (jc JobCounts) Total() int {
	return jc.Pending + jc.Running + jc.Completed + jc.Failed
}

// JobStatus is one instance's /statusz row.
type JobStatus struct {
	ID       string `json:"id"`
	Name     string `json:"name,omitempty"`
	State    State  `json:"state"`
	Agent    string `json:"agent,omitempty"`
	Attempts int    `json:"attempts,omitempty"`
	Accepted bool   `json:"accepted,omitempty"`
	Probes   int    `json:"probes,omitempty"`
	Losses   int    `json:"losses,omitempty"`
	Error    string `json:"error,omitempty"`
	// RuntimeSec is dispatch→finish for settled instances, dispatch→now
	// for running ones.
	RuntimeSec *float64 `json:"runtime_sec,omitempty"`
}

// AgentStatus is one agent's /statusz row.
type AgentStatus struct {
	Agent     string `json:"agent"`
	Connected bool   `json:"connected"`
	Capacity  int    `json:"capacity"`
	Running   int    `json:"running"`
	Completed int64  `json:"completed"`
	// LastSeenAge is seconds since the agent's last frame.
	LastSeenAge *float64 `json:"last_seen_age_sec,omitempty"`
	// LeaseAge is the same age judged against Config.LeaseTimeout: the
	// fraction of the lease already consumed by silence (1.0 = about to
	// be evicted). Present only when leases are enabled.
	LeaseAge *float64 `json:"lease_age,omitempty"`
	// Evictions counts how many times this agent's lease expired.
	Evictions int64 `json:"evictions,omitempty"`
	// Stale marks a connected agent silent past Config.StaleAfter.
	Stale bool `json:"stale,omitempty"`
}

// JournalStatus is the journal's /statusz block.
type JournalStatus struct {
	Path        string `json:"path"`
	Bytes       int64  `json:"bytes"`
	Appends     int64  `json:"appends"`
	Compactions int64  `json:"compactions"`
	Error       string `json:"error,omitempty"`
}

// Status is the coordinator's /statusz document. Recent is capped at
// the newest maxRecentJobs instances so a 10k-job load run does not
// turn /statusz into a database dump; Jobs always counts everything.
type Status struct {
	Jobs JobCounts `json:"jobs"`
	// Requeued/Evicted are lifetime robustness counters (Failed lives
	// in Jobs).
	Requeued int64          `json:"requeued,omitempty"`
	Evicted  int64          `json:"evicted,omitempty"`
	Journal  *JournalStatus `json:"journal,omitempty"`
	Agents   []AgentStatus  `json:"agents"`
	Recent   []JobStatus    `json:"recent_jobs,omitempty"`
}

// maxRecentJobs caps Status.Recent.
const maxRecentJobs = 64

// Counts aggregates the job table by state.
func (c *Coordinator) Counts() JobCounts {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t.counts
}

// Job reports one instance's status row, false for an unknown id.
func (c *Coordinator) Job(id string) (JobStatus, bool) {
	now := time.Now().UnixNano()
	c.mu.Lock()
	defer c.mu.Unlock()
	j := c.t.byID[id]
	if j == nil {
		return JobStatus{}, false
	}
	return c.jobRowLocked(j, now), true
}

func (c *Coordinator) jobRowLocked(j *JobRow, now int64) JobStatus {
	row := JobStatus{
		ID: j.ID, Name: j.Spec.Name, State: j.State, Agent: j.Agent,
		Attempts: j.Attempts, Accepted: j.accepted,
		Probes: j.Probes, Losses: j.Losses, Error: j.Err,
	}
	switch {
	case j.finishedNs != 0 && j.startedNs != 0:
		sec := float64(j.finishedNs-j.startedNs) / float64(time.Second)
		row.RuntimeSec = &sec
	case j.State == StateRunning && j.startedNs != 0:
		sec := float64(now-j.startedNs) / float64(time.Second)
		row.RuntimeSec = &sec
	}
	return row
}

// Status reports the full /statusz document.
func (c *Coordinator) Status() Status {
	now := time.Now().UnixNano()
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Status{Jobs: c.t.counts, Requeued: c.requeued, Evicted: c.evicted}
	if j := c.cfg.Journal; j != nil {
		appends, compactions := j.Stats()
		js := &JournalStatus{Path: j.Path(), Bytes: j.Size(),
			Appends: appends, Compactions: compactions}
		if err := j.Err(); err != nil {
			js.Error = err.Error()
		}
		st.Journal = js
	}
	for _, name := range c.agentOrder {
		a := c.agents[name]
		row := AgentStatus{
			Agent: a.name, Connected: a.connected, Capacity: a.capacity,
			Running: len(a.running), Completed: a.completed,
			Evictions: a.evictions,
		}
		if last := a.lastNs.Load(); last != 0 {
			age := float64(now-last) / float64(time.Second)
			row.LastSeenAge = &age
			row.Stale = a.connected && c.cfg.StaleAfter > 0 &&
				time.Duration(now-last) > c.cfg.StaleAfter
			if lt := c.cfg.LeaseTimeout; lt > 0 {
				frac := float64(now-last) / float64(lt)
				row.LeaseAge = &frac
			}
		}
		st.Agents = append(st.Agents, row)
	}
	sort.Slice(st.Agents, func(i, k int) bool { return st.Agents[i].Agent < st.Agents[k].Agent })
	start := len(c.t.Jobs) - maxRecentJobs
	if start < 0 {
		start = 0
	}
	for _, j := range c.t.Jobs[start:] {
		st.Recent = append(st.Recent, c.jobRowLocked(j, now))
	}
	return st
}

// exportMetrics registers the coordinator's gauges (refreshed per
// scrape) and transition counters.
func (c *Coordinator) exportMetrics(reg *obs.Registry) {
	pending := reg.Gauge("coord.jobs.pending")
	running := reg.Gauge("coord.jobs.running")
	completed := reg.Gauge("coord.jobs.completed")
	connected := reg.Gauge("coord.agents.connected")
	// starved is the agents_lost alert input: the pending backlog while
	// zero agents are connected, 0 otherwise. A single series because
	// tshist rules watch one series each.
	starved := reg.Gauge("coord.jobs.starved")
	c.cRequeued = reg.Counter("coord.jobs.requeued")
	c.cFailed = reg.Counter("coord.jobs.failed")
	c.cEvicted = reg.Counter("coord.agents.evicted")
	obs.OnScrape(func() {
		if c.closedFlag.Load() {
			return
		}
		c.mu.Lock()
		jc := c.t.counts
		conns := 0
		for _, a := range c.agents {
			if a.connected {
				conns++
			}
		}
		c.mu.Unlock()
		pending.Set(int64(jc.Pending))
		running.Set(int64(jc.Running))
		completed.Set(int64(jc.Completed))
		connected.Set(int64(conns))
		if conns == 0 {
			starved.Set(int64(jc.Pending))
		} else {
			starved.Set(0)
		}
	})
}

// WaitIdle blocks until no instance is pending or running (or ctx
// ends). A coordinator with zero jobs is idle.
func (c *Coordinator) WaitIdle(ctx context.Context) error {
	stop := context.AfterFunc(ctx, func() {
		// Taking the lock serializes with the waiter below: the broadcast
		// cannot slip into the gap between its ctx check and its Wait.
		c.mu.Lock()
		c.cond.Broadcast()
		c.mu.Unlock()
	})
	defer stop()
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		jc := c.t.counts
		if jc.Pending == 0 && jc.Running == 0 {
			return nil
		}
		c.cond.Wait()
	}
}

// Close stops accepting, disconnects every agent, and waits for the
// handlers and schedulers to drain. Idempotent. The journal (if any)
// stays open — its owner closes it after the table quiesces.
func (c *Coordinator) Close() error {
	return c.shutdown(false)
}

// Kill is Close with SIGKILL semantics, for crash testing: no journal
// writes happen after it (the re-queues a graceful shutdown would
// record are lost, exactly as if the process died), frames still
// being read trigger no dispatch or ack, agent connections are torn
// down abruptly, and the journal is abandoned mid-stream without a
// flush. Recovery must rebuild the table from the journal's durable
// prefix alone.
func (c *Coordinator) Kill() {
	c.shutdown(true) //nolint:errcheck // crash simulation
}

func (c *Coordinator) shutdown(kill bool) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.killed = kill
	c.closedFlag.Store(true)
	agents := make([]*agentConn, 0, len(c.agents))
	for _, a := range c.agents {
		agents = append(agents, a)
	}
	c.mu.Unlock()
	err := c.ln.Close()
	c.cancel()
	for _, a := range agents {
		if kill && a.conn != nil {
			a.conn.Close() //nolint:errcheck // abrupt teardown
			continue
		}
		a.send.Close() //nolint:errcheck // shutting down
	}
	c.wg.Wait()
	if kill && c.cfg.Journal != nil {
		c.cfg.Journal.Abandon()
	}
	return err
}
