package coord

import (
	"context"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"netprobe/internal/faultinject"
	"netprobe/internal/obs"
	"netprobe/internal/otrace"
	"netprobe/internal/pipestat"
	"netprobe/internal/source"
)

// The full-fleet chaos soak: a seeded schedule that kills and restarts
// the coordinator (SIGKILL semantics — no graceful re-queue, journal
// abandoned mid-stream), the relay, and random agents mid-campaign,
// with a faultinject plan impairing the data plane, then audits the
// wreckage: every submitted instance settled exactly once, the journal
// replays to the same final table, and the senders' conservation books
// (emitted == sent + dropped, via a pipestat ledger) balance. This is
// the control-plane counterpart of PR 5's packet-level chaos: process
// granularity instead of packet granularity.

// ChaosConfig sizes a chaos run. The zero value is a short soak
// suitable for make check.
type ChaosConfig struct {
	// Seed drives the kill schedule, the fault plan, and the synthetic
	// workload. Identical seeds produce identical schedules.
	Seed int64
	// Duration is the chaos window during which kills fire (default
	// 4s). The run lasts longer: submission up front, drain at the end.
	Duration time.Duration
	// Jobs is how many one-shot instances are submitted (default 120).
	Jobs int
	// Agents is the fleet size (default 4).
	Agents int
	// Pairs is the probe/rtt pairs each session emits (default 4).
	Pairs int
	// CoordKills/AgentKills/RelayKills count the kills of each kind
	// scheduled inside the window (defaults 2, 3, 1; AgentKills and
	// RelayKills may be 0 for a coordinator-only crash test).
	CoordKills int
	AgentKills int
	RelayKills int
	// NoAgentKills/NoRelayKills force those schedules empty (a zero
	// value means "default", so an explicit off switch is needed).
	NoAgentKills bool
	NoRelayKills bool
	// LeaseTimeout is the coordinator's agent lease (default 500ms —
	// the zombie agent below is evicted by it).
	LeaseTimeout time.Duration
	// Zombie adds a half-dead agent: it registers with capacity 2 and
	// then never heartbeats or completes, so only lease eviction can
	// free the instances dispatched to it. Default on; disable for
	// lease-less runs.
	NoZombie bool
	// Timeout bounds the whole run (default 90s).
	Timeout time.Duration
	// Journal is the journal path. Required.
	Journal string
	// Logf, if non-nil, narrates the schedule.
	Logf func(format string, args ...any)
}

// ChaosResult is the soak's audit report.
type ChaosResult struct {
	Submitted int   `json:"submitted"`
	Completed int   `json:"completed"`
	Failed    int   `json:"failed"`
	Requeued  int64 `json:"requeued"`
	Evicted   int64 `json:"evicted"`
	// Executions counts successful RunFunc returns. It can exceed
	// Completed only when an agent died mid-execution after the work
	// finished but before the completion settled — never because one
	// settled instance was dispatched twice.
	Executions int64 `json:"executions"`
	// The kill/restart tallies actually performed.
	CoordRestarts int `json:"coord_restarts"`
	AgentRestarts int `json:"agent_restarts"`
	RelayRestarts int `json:"relay_restarts"`
	// Data-plane books: per-sender emitted == sent + dropped held
	// (Unaccounted is the ledger residue, 0 when the books balance);
	// Delivered is what the relay applied across its restarts.
	Emitted     int64 `json:"emitted"`
	Sent        int64 `json:"sent"`
	Dropped     int64 `json:"dropped"`
	Delivered   int64 `json:"delivered"`
	Unaccounted int64 `json:"unaccounted"`
	// ReplayMatch reports that re-reading the journal reproduced the
	// live coordinator's final table exactly.
	ReplayMatch bool          `json:"replay_match"`
	Wall        time.Duration `json:"wall_ns"`
}

// splitmix64 is the schedule RNG: tiny, seeded, dependency-free.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// between returns a uniform duration in [lo, hi).
func (s *splitmix64) between(lo, hi time.Duration) time.Duration {
	if hi <= lo {
		return lo
	}
	return lo + time.Duration(s.next()%uint64(hi-lo))
}

// sinkFunc adapts a function to otrace.Sink.
type sinkFunc func(otrace.Event)

func (f sinkFunc) Emit(ev otrace.Event) { f(ev) }

// chaosEvent is one scheduled kill.
type chaosEvent struct {
	at   time.Duration
	kind string // "coord", "relay", "agent"
	who  int    // agent index
}

// RunChaos executes one chaos soak and audits the invariants,
// returning an error describing the first violated one.
func RunChaos(ctx context.Context, cfg ChaosConfig) (*ChaosResult, error) {
	if cfg.Journal == "" {
		return nil, fmt.Errorf("coord: chaos: journal path required")
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 4 * time.Second
	}
	if cfg.Jobs <= 0 {
		cfg.Jobs = 120
	}
	if cfg.Agents <= 0 {
		cfg.Agents = 4
	}
	if cfg.Pairs <= 0 {
		cfg.Pairs = 4
	}
	if cfg.CoordKills <= 0 {
		cfg.CoordKills = 2
	}
	if cfg.AgentKills <= 0 && !cfg.NoAgentKills {
		cfg.AgentKills = 3
	}
	if cfg.RelayKills <= 0 && !cfg.NoRelayKills {
		cfg.RelayKills = 1
	}
	if cfg.LeaseTimeout <= 0 {
		cfg.LeaseTimeout = 500 * time.Millisecond
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 90 * time.Second
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	ctx, cancel := context.WithTimeout(ctx, cfg.Timeout)
	defer cancel()
	t0 := time.Now()
	rng := splitmix64(uint64(cfg.Seed)*0x9e3779b97f4a7c15 + 1)

	// The data-plane fault plan: light random loss and duplication on
	// the session streams, deterministic per seed.
	plan := &faultinject.Plan{Seed: cfg.Seed + 7, Drop: 0.02, Duplicate: 0.01}

	// --- Relay (restartable, fixed port) -------------------------------
	var delivered atomic.Int64
	countSink := sinkFunc(func(otrace.Event) { delivered.Add(1) })
	relayLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("coord: chaos: %w", err)
	}
	relayAddr := relayLn.Addr().String()
	var relayMu sync.Mutex
	relaySrv, err := source.Serve(relayLn, source.ServerConfig{Sink: countSink, Grace: -1})
	if err != nil {
		return nil, err
	}
	defer func() {
		relayMu.Lock()
		defer relayMu.Unlock()
		if relaySrv != nil {
			relaySrv.Close() //nolint:errcheck // teardown
		}
	}()

	// --- Coordinator (restartable, fixed port, journaled) --------------
	coordLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("coord: chaos: %w", err)
	}
	coordAddr := coordLn.Addr().String()
	var coordMu sync.Mutex
	var co *Coordinator
	var jn *Journal
	startCoord := func(ln net.Listener) error {
		j, rec, err := OpenJournal(cfg.Journal, JournalOptions{Sync: SyncInterval, SyncEvery: 20 * time.Millisecond})
		if err != nil {
			return err
		}
		c := Serve(ln, Config{
			MaxAttempts: 1000, // chaos failures must re-queue, not fail
			Journal:     j,
			Recovered:   rec,
			// A quarter window comfortably covers the longest in-flight
			// hold (0.15·Duration) plus the agents' reconnect backoff, so
			// completions finished during an outage settle via the resend
			// buffer before re-dispatch.
			RecoveryGrace: cfg.Duration / 4,
			LeaseTimeout:  cfg.LeaseTimeout,
			SweepEvery:    25 * time.Millisecond,
			Logf:          cfg.Logf,
		})
		coordMu.Lock()
		co, jn = c, j
		coordMu.Unlock()
		return nil
	}
	if err := startCoord(coordLn); err != nil {
		return nil, err
	}
	current := func() *Coordinator {
		coordMu.Lock()
		defer coordMu.Unlock()
		return co
	}

	// --- The fleet: agents with impaired, book-kept data streams -------
	// A private registry: the produced counters live in the registry,
	// and the global one would leak counts across runs in one process.
	ledger := pipestat.NewLedger(obs.NewRegistry())
	res := &ChaosResult{Submitted: cfg.Jobs}
	var executions atomic.Int64
	start := time.Now()
	type agentSlot struct {
		cancel context.CancelFunc
		done   chan struct{}
	}
	senders := make([]*source.Sender, cfg.Agents)
	sinks := make([]otrace.Sink, cfg.Agents)
	for i := 0; i < cfg.Agents; i++ {
		s := source.DialAuto(relayAddr, source.Redial{
			Backoff: 20 * time.Millisecond, BackoffMax: 200 * time.Millisecond,
			Seed: cfg.Seed + int64(i),
		})
		defer s.Close() //nolint:errcheck // teardown
		senders[i] = s
		chain := ledger.Chain(fmt.Sprintf("chaos-agent-%d", i))
		chain.Applied("sent", s.Sent)
		chain.Dropped("wire", s.Dropped)
		// Faults are injected above the Produce tap: an event the plan
		// kills never enters the books, an event it duplicates enters
		// twice — produced always equals what was really offered to the
		// sender, so the ledger stays exact under impairment.
		produced := chain.Produce(s)
		key := uint64(cfg.Seed+int64(i)) << 20
		sinks[i] = sinkFunc(func(ev otrace.Event) {
			d := plan.Decide(key+uint64(ev.Seq)+uint64(len(ev.Job))<<8, time.Since(start))
			if d.Lethal() {
				return
			}
			produced.Emit(ev)
			if d.Duplicate {
				produced.Emit(ev)
			}
		})
	}
	// Per-job hold times are scaled so the campaign's total work
	// (Jobs × mean hold / fleet slots) outlasts the chaos window —
	// kills must land on a fleet that is still mid-flight, not one
	// that drained in the first second.
	holdBase := cfg.Duration / 20
	holdSpread := int64(cfg.Duration / 10)
	executor := func(jctx context.Context, id string, spec Spec, sink otrace.Sink) (Result, error) {
		// A seeded session: hold the slot, then run metadata plus Pairs
		// probe/rtt pairs, honoring cancellation (agent death, deadline).
		// The seed is hashed first — raw job seeds are small integers and
		// would all collapse to a near-zero jitter at nanosecond scale.
		h := splitmix64(spec.Seed)
		hold := holdBase + time.Duration(h.next()%uint64(holdSpread))
		if !sleepCtx(jctx, hold) {
			return Result{}, jctx.Err()
		}
		sink.Emit(otrace.Event{Ev: otrace.KindRunStart, Name: spec.Name,
			DeltaNs: int64(spec.Delta), Count: cfg.Pairs})
		for k := 0; k < cfg.Pairs; k++ {
			sink.Emit(otrace.Event{Ev: otrace.KindProbeSent, Seq: k, T: int64(k) * int64(spec.Delta)})
			sink.Emit(otrace.Event{Ev: otrace.KindRTT, Seq: k, RTTNs: int64(10 * time.Millisecond)})
		}
		executions.Add(1)
		return Result{Probes: cfg.Pairs}, nil
	}
	agents := make([]agentSlot, cfg.Agents)
	startAgent := func(i int) {
		actx, acancel := context.WithCancel(ctx)
		done := make(chan struct{})
		agents[i] = agentSlot{cancel: acancel, done: done}
		go func() {
			defer close(done)
			RunAgent(actx, coordAddr, AgentConfig{ //nolint:errcheck // returns ctx.Err
				Name: fmt.Sprintf("chaos-a%d", i), Capacity: 2,
				Run: executor, Sink: sinks[i],
				Heartbeat: 100 * time.Millisecond,
				Backoff:   20 * time.Millisecond, BackoffMax: 200 * time.Millisecond,
				Seed: cfg.Seed + int64(i),
			})
		}()
	}
	for i := 0; i < cfg.Agents; i++ {
		startAgent(i)
	}
	defer func() {
		for i := range agents {
			agents[i].cancel()
		}
	}()

	// The zombie: registers, never heartbeats, never completes — only a
	// lease eviction can reclaim what is dispatched to it. It redials
	// after each eviction (or coordinator restart) to keep the pressure
	// on.
	zctx, zcancel := context.WithCancel(ctx)
	defer zcancel()
	if !cfg.NoZombie {
		go func() {
			for zctx.Err() == nil {
				conn, err := net.Dial("tcp", coordAddr)
				if err != nil {
					sleepCtx(zctx, 50*time.Millisecond)
					continue
				}
				stop := context.AfterFunc(zctx, func() { conn.Close() }) //nolint:errcheck // teardown
				zs := source.NewSender(conn)
				zs.Emit(registerEvent("zombie", 2))
				buf := make([]byte, 256)
				for {
					if _, err := conn.Read(buf); err != nil {
						break
					}
				}
				stop()
				zs.Close() //nolint:errcheck // already dead
				sleepCtx(zctx, 100*time.Millisecond)
			}
		}()
	}

	// --- Submit the campaign -------------------------------------------
	ids := make([]string, 0, cfg.Jobs)
	for i := 0; i < cfg.Jobs; i++ {
		ids = append(ids, current().Submit(Spec{
			Name:  fmt.Sprintf("c%04d", i),
			Mode:  "chaos",
			Delta: Duration(5 * time.Millisecond),
			Seed:  cfg.Seed + int64(i)*7919,
		}))
	}

	// --- The seeded kill schedule --------------------------------------
	// Kills are stratified: kill i of n lands in the i-th slice of
	// [window/8, window*3/4], so a run always interleaves kills with
	// live work instead of clustering them at one end of the window.
	var sched []chaosEvent
	window := cfg.Duration
	stratified := func(n int, kind string) {
		lo, hi := window/8, window*3/4
		slice := (hi - lo) / time.Duration(n)
		for i := 0; i < n; i++ {
			at := rng.between(lo+slice*time.Duration(i), lo+slice*time.Duration(i+1))
			sched = append(sched, chaosEvent{at: at, kind: kind,
				who: int(rng.next() % uint64(cfg.Agents))})
		}
	}
	stratified(cfg.CoordKills, "coord")
	if cfg.AgentKills > 0 {
		stratified(cfg.AgentKills, "agent")
	}
	if cfg.RelayKills > 0 {
		stratified(cfg.RelayKills, "relay")
	}
	sort.Slice(sched, func(i, k int) bool { return sched[i].at < sched[k].at })

	for _, ev := range sched {
		if wait := ev.at - time.Since(t0); wait > 0 && !sleepCtx(ctx, wait) {
			return res, ctx.Err()
		}
		switch ev.kind {
		case "coord":
			logf("chaos: t=%s SIGKILL coordinator", time.Since(t0).Round(time.Millisecond))
			// The counters die with the process; bank them first so the
			// result reports the whole campaign, not the last generation.
			gen := current().Status()
			res.Requeued += gen.Requeued
			res.Evicted += gen.Evicted
			current().Kill()
			if !sleepCtx(ctx, rng.between(100*time.Millisecond, 400*time.Millisecond)) {
				return res, ctx.Err()
			}
			ln, err := net.Listen("tcp", coordAddr)
			if err != nil {
				return res, fmt.Errorf("coord: chaos: rebind coordinator: %w", err)
			}
			if err := startCoord(ln); err != nil {
				return res, fmt.Errorf("coord: chaos: recover coordinator: %w", err)
			}
			res.CoordRestarts++
		case "relay":
			logf("chaos: t=%s kill relay", time.Since(t0).Round(time.Millisecond))
			relayMu.Lock()
			relaySrv.Close() //nolint:errcheck // abrupt teardown
			relaySrv = nil
			relayMu.Unlock()
			if !sleepCtx(ctx, rng.between(50*time.Millisecond, 250*time.Millisecond)) {
				return res, ctx.Err()
			}
			ln, err := net.Listen("tcp", relayAddr)
			if err != nil {
				return res, fmt.Errorf("coord: chaos: rebind relay: %w", err)
			}
			srv, err := source.Serve(ln, source.ServerConfig{Sink: countSink, Grace: -1})
			if err != nil {
				return res, err
			}
			relayMu.Lock()
			relaySrv = srv
			relayMu.Unlock()
			res.RelayRestarts++
		case "agent":
			logf("chaos: t=%s kill agent %d", time.Since(t0).Round(time.Millisecond), ev.who)
			agents[ev.who].cancel()
			<-agents[ev.who].done
			if !sleepCtx(ctx, rng.between(50*time.Millisecond, 200*time.Millisecond)) {
				return res, ctx.Err()
			}
			startAgent(ev.who)
			res.AgentRestarts++
		}
	}

	// --- Drain and audit ------------------------------------------------
	zcancel() // the zombie's capacity would strand the tail of the queue
	if err := current().WaitIdle(ctx); err != nil {
		jc := current().Counts()
		return res, fmt.Errorf("coord: chaos: campaign did not settle (%+v): %w", jc, err)
	}
	final := current()
	counts := final.Counts()
	st := final.Status()
	res.Completed = counts.Completed
	res.Failed = counts.Failed
	res.Requeued += st.Requeued
	res.Evicted += st.Evicted
	res.Executions = executions.Load()
	res.Wall = time.Since(t0)

	// Settlement: every submitted instance, exactly once, no failures.
	if counts.Completed != cfg.Jobs || counts.Failed != 0 ||
		counts.Pending != 0 || counts.Running != 0 {
		return res, fmt.Errorf("coord: chaos: settlement violated: %+v (want %d completed)",
			counts, cfg.Jobs)
	}
	liveRows := make(map[string]JobStatus, len(ids))
	for _, id := range ids {
		row, ok := final.Job(id)
		if !ok {
			return res, fmt.Errorf("coord: chaos: instance %s vanished from the table", id)
		}
		if row.State != StateCompleted {
			return res, fmt.Errorf("coord: chaos: instance %s ended %s", id, row.State)
		}
		liveRows[id] = row
	}

	// Journal: a graceful close, then replay must equal the live table.
	final.Close() //nolint:errcheck // teardown
	jn.Close()    //nolint:errcheck // teardown
	rec, err := Recover(cfg.Journal)
	if err != nil {
		return res, fmt.Errorf("coord: chaos: final replay: %w", err)
	}
	if len(rec.Jobs) != len(ids) {
		return res, fmt.Errorf("coord: chaos: replay has %d instances, live table %d",
			len(rec.Jobs), len(ids))
	}
	for _, rj := range rec.Jobs {
		row, ok := liveRows[rj.ID]
		if !ok || rj.State != row.State || rj.Agent != row.Agent || rj.Attempts != row.Attempts ||
			rj.Probes != row.Probes || rj.Losses != row.Losses || rj.Err != row.Error {
			return res, fmt.Errorf("coord: chaos: replay diverges at %s: replay=%+v live=%+v",
				rj.ID, *rj, row)
		}
	}
	res.ReplayMatch = true

	// Conservation: stop the agents, flush the senders, and balance the
	// books. Emit-vs-account races are gone once every RunAgent exited.
	for i := range agents {
		agents[i].cancel()
		<-agents[i].done
	}
	for _, s := range senders {
		res.Sent += s.Sent()
		res.Dropped += s.Dropped()
	}
	res.Emitted = res.Sent + res.Dropped
	res.Unaccounted = ledger.Unaccounted()
	res.Delivered = delivered.Load()
	if res.Unaccounted != 0 {
		return res, fmt.Errorf("coord: chaos: ledger unaccounted %d (emitted %d, sent %d, dropped %d)",
			res.Unaccounted, res.Emitted, res.Sent, res.Dropped)
	}
	return res, nil
}
