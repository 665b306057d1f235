package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"netprobe/internal/coord"
	"netprobe/internal/netdyn"
	"netprobe/internal/otrace"
	"netprobe/internal/source"
)

// The fleet-churn workload: short synthetic jobs submitted open-loop to
// a journaling coordinator and executed by one agent, whose relay
// Sender streams each job's events to the same relay as relay-ingest.
const (
	churnRate     = 1000 // jobs due per second
	churnCapacity = 64   // the agent's concurrent job slots
	churnPairs    = 10
	// churnData is what the executor emits per job: run_start and ten
	// probe_sent/rtt pairs. The agent brackets them with job_start and
	// job_finish, giving coord.RunLoad's session shape.
	churnData   = 1 + 2*churnPairs
	churnEvents = churnData + 2
	churnWarm   = 64 // warm-up jobs per set-up
	windowJobs  = int(churnRate * windowLen / time.Second)
)

var fleetChurn = &workloadDef{
	name:  "fleet-churn",
	why:   "per-job control-plane cost: 1000 short jobs/s through submit, dispatch, ctrl frames and journal appends, each streaming 23 events to the relay",
	setup: setupChurn,
}

type churn struct {
	seed    int64
	traced  bool
	dir     string
	journal *coord.Journal
	co      *coord.Coordinator
	relay   *relay
	sender  *source.Sender
	stop    context.CancelFunc
	stopped chan error

	names []string          // the measured jobs' spec names, "j000000" on
	t0    atomic.Int64      // wall clock job 0 is due
	lat   [workers][]sample // per shard: every measured job's latency
	// Per job, wall-clock instants written on agent goroutines. The main
	// goroutine learns of them only across sockets, which the race
	// detector does not see, hence the atomics.
	runStart, runEnd, finish []atomic.Int64
	// Traced runs only.
	emitNs                 []atomic.Int64 // per job and data event, Sender time
	submitStart, submitEnd []int64
	late                   []int64
	queue                  [workers][]int64
}

// churnMaxJobs keeps a run's journal below its default 4 MiB
// compaction limit (about 163 bytes per job): past it, the snapshot of
// settled jobs alone outgrows the limit and every append rewrites it.
const churnMaxJobs = 24_000

func setupChurn(o runOpts) (instance, error) {
	n := int(o.seconds * churnRate)
	if n+churnWarm > churnMaxJobs {
		return nil, fmt.Errorf("%d jobs would outgrow the journal's compaction limit; run at most %d s",
			n, (churnMaxJobs-churnWarm)/churnRate)
	}
	c := &churn{seed: o.seed, traced: o.traced, names: make([]string, n),
		runStart: make([]atomic.Int64, n), runEnd: make([]atomic.Int64, n), finish: make([]atomic.Int64, n)}
	for i := range c.names {
		c.names[i] = fmt.Sprintf("j%06d", i)
	}
	for s := range c.lat {
		c.lat[s] = make([]sample, 0, n)
	}
	if o.traced {
		c.emitNs = make([]atomic.Int64, n*churnData)
		c.submitStart, c.submitEnd, c.late = make([]int64, n), make([]int64, n), make([]int64, n)
		for s := range c.queue {
			c.queue[s] = make([]int64, 0, n*churnEvents)
		}
	}
	if err := c.start(o); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

// start brings up the relay, the journaling coordinator and the agent,
// then runs the warm-up jobs through them.
func (c *churn) start(o runOpts) error {
	var err error
	if c.dir, err = os.MkdirTemp(o.workdir, "fleet-churn-"); err != nil {
		return err
	}
	if c.journal, _, err = coord.OpenJournal(filepath.Join(c.dir, "journal.otr"), coord.JournalOptions{}); err != nil {
		return err
	}
	if c.relay, err = newRelay(o.traced, c.onFirst, c.onLast); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	// One attempt per job, as in coord.RunLoad: a retried job would emit
	// its events twice and break the exact event count checked below.
	c.co = coord.Serve(ln, coord.Config{Journal: c.journal, MaxAttempts: 1})
	if c.sender, err = source.Dial(c.relay.addr()); err != nil {
		return err
	}
	ctx, stop := context.WithCancel(context.Background())
	c.stop, c.stopped = stop, make(chan error, 1)
	go func() {
		c.stopped <- coord.RunAgent(ctx, ln.Addr().String(), coord.AgentConfig{
			Name: "bench-agent", Capacity: churnCapacity, Run: c.run, Sink: c.sender, Seed: o.seed})
	}()
	for deadline := time.Now().Add(10 * time.Second); !agentConnected(c.co); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			return fmt.Errorf("agent did not register")
		}
	}
	for i := 0; i < churnWarm; i++ {
		c.co.Submit(c.spec(fmt.Sprintf("w%03d", i), -1))
	}
	return c.settle(churnWarm)
}

func agentConnected(co *coord.Coordinator) bool {
	for _, a := range co.Status().Agents {
		if a.Connected {
			return true
		}
	}
	return false
}

// settle waits for the coordinator to go idle and the relay to handle
// every event of the given number of jobs.
func (c *churn) settle(jobs int) error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := c.co.WaitIdle(ctx); err != nil {
		return fmt.Errorf("coordinator did not go idle: %w", err)
	}
	return c.relay.drain(int64(jobs*churnEvents), 30*time.Second)
}

func (c *churn) spec(name string, i int) coord.Spec {
	return coord.Spec{Name: name, Mode: "bench", Delta: coord.Duration(20 * time.Millisecond),
		Count: churnPairs, Seed: c.seed + int64(i)*7919}
}

// jobIndex maps a measured job's name "jNNNNNN" to its index, -1 for
// the warm-up jobs.
func jobIndex(name string) int {
	if len(name) < 2 || name[0] != 'j' {
		return -1
	}
	i, err := strconv.Atoi(name[1:])
	if err != nil {
		return -1
	}
	return i
}

func (c *churn) due(i int) int64 { return c.t0.Load() + int64(i)*int64(time.Second)/churnRate }

// run is the agent's executor: a synthetic 10-pair probing session
// with a deterministic jittered RTT, as coord.RunLoad emits.
func (c *churn) run(_ context.Context, _ string, spec coord.Spec, sink otrace.Sink) (coord.Result, error) {
	i := jobIndex(spec.Name)
	if i >= 0 {
		c.runStart[i].Store(time.Now().UnixNano())
	}
	c.emit(sink, i, 0, otrace.Event{Ev: otrace.KindRunStart, Name: spec.Name,
		DeltaNs: int64(spec.Delta), PayloadBytes: 32, WireBytes: 72, BottleneckBps: 1_000_000, Count: churnPairs})
	for k := 0; k < churnPairs; k++ {
		t := int64(k) * int64(spec.Delta)
		c.emit(sink, i, 1+2*k, otrace.Event{Ev: otrace.KindProbeSent, Seq: k, T: t})
		rtt := int64(float64(20*time.Millisecond) * netdyn.RetryJitter(spec.Seed, k, 0))
		c.emit(sink, i, 2+2*k, otrace.Event{Ev: otrace.KindRTT, Seq: k, T: t + rtt, RTTNs: rtt})
	}
	if i >= 0 {
		c.runEnd[i].Store(time.Now().UnixNano())
	}
	return coord.Result{Probes: churnPairs}, nil
}

func (c *churn) emit(sink otrace.Sink, i, k int, ev otrace.Event) {
	if !c.traced || i < 0 {
		sink.Emit(ev)
		return
	}
	t := time.Now().UnixNano()
	sink.Emit(ev)
	c.emitNs[i*churnData+k].Store(time.Now().UnixNano() - t)
}

func (c *churn) onFirst(shard int, ev otrace.Event, now int64) {
	if jobIndex(ev.Job) >= 0 {
		c.queue[shard] = append(c.queue[shard], now-ev.Stamp)
	}
}

func (c *churn) onLast(shard int, ev otrace.Event, now int64) {
	if ev.Ev != otrace.KindJobFinish {
		return
	}
	if i := jobIndex(ev.Job); i >= 0 {
		c.lat[shard] = append(c.lat[shard], sample{int32(i / windowJobs), now - c.due(i)})
		c.finish[i].Store(now)
	}
}

func (c *churn) measure(o runOpts) (*outcome, error) {
	n := len(c.names)
	out := &outcome{op: "jobs", layers: map[string]float64{}}
	appends0, compactions0 := c.journal.Stats()
	var m0, m1 runtime.MemStats
	var backlog int
	var polling sync.WaitGroup
	done := make(chan struct{})
	if o.traced {
		runtime.ReadMemStats(&m0)
		polling.Add(1)
		go func() {
			defer polling.Done()
			tick := time.NewTicker(10 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-done:
					return
				case <-tick.C:
					backlog = max(backlog, c.co.Counts().Pending)
				}
			}
		}()
	}
	ops := make([]int64, (n+windowJobs-1)/windowJobs)
	for w := range ops {
		ops[w] = int64(min(windowJobs, n-w*windowJobs))
	}
	marks := make([]time.Duration, 0, len(ops)+1)
	t0 := time.Now().UnixNano() + int64(2*time.Millisecond)
	c.t0.Store(t0)
	release := pace()
	for i, name := range c.names {
		due := c.due(i)
		now := sleepUntil(due)
		if i%windowJobs == 0 {
			marks = append(marks, cpuTime())
		}
		if o.traced {
			c.late[i], c.submitStart[i] = now-due, now
		}
		c.co.Submit(c.spec(name, i))
		if o.traced {
			c.submitEnd[i] = time.Now().UnixNano()
		}
	}
	release()
	settled := c.settle(churnWarm + n)
	marks = append(marks, cpuTime())
	close(done)
	polling.Wait()
	if o.traced {
		runtime.ReadMemStats(&m1)
	}
	out.ops = int64(n)
	fmt.Printf("  submitted %d jobs over %.1f s\n", n, float64(time.Now().UnixNano()-t0)/1e9)
	if settled != nil {
		out.check("settle", false, settled.Error())
		out.failed = int64(n)
		return out, nil
	}

	total := churnWarm + n
	counts := c.co.Counts()
	out.check("jobs", counts.Completed == total && counts.Failed == 0, fmt.Sprintf(
		"%d of %d jobs completed, %d failed, %d pending, %d running",
		counts.Completed, total, counts.Failed, counts.Pending, counts.Running))
	out.failed = int64(max(total-counts.Completed, 0))
	delivered, _ := c.relay.srv.Totals()
	seen, bad := 0, 0
	for _, m := range c.relay.monitors {
		for _, js := range m.Jobs() {
			if jobIndex(js.Job) < 0 {
				continue
			}
			seen++
			if js.Events != churnEvents || !js.Finalized {
				bad++
			}
		}
	}
	out.check("events", delivered == int64(total*churnEvents) && bad == 0 && seen == n && c.sender.Dropped() == 0,
		fmt.Sprintf("relay delivered %d of %d events; %d of %d jobs reached the analyzers, %d with a wrong count",
			delivered, total*churnEvents, seen, n, bad))
	out.failed += int64(bad + n - seen)
	c.relay.checkLedger(out, int64(total*churnEvents))
	out.windows = openWindows(marks, ops, c.lat[:]...)
	if !o.traced {
		return out, nil
	}

	var submit, dispatch, run, finalize, queue []int64
	for i := range c.names {
		due, runStart, runEnd, fin := c.due(i), c.runStart[i].Load(), c.runEnd[i].Load(), c.finish[i].Load()
		if fin == 0 {
			continue
		}
		submit = append(submit, c.submitEnd[i]-c.submitStart[i])
		dispatch = append(dispatch, runStart-due)
		run = append(run, runEnd-runStart)
		finalize = append(finalize, fin-runEnd)
		// Submit dispatches inline, so the agent may start the job before
		// Submit returns; the job's path then leaves Submit at runStart.
		handoff := min(c.submitEnd[i], runStart)
		root := out.log.add(int64(i), 0, "job", due, fin)
		out.log.add(int64(i), root, "gen.late", due, c.submitStart[i])
		out.log.add(int64(i), root, "coord.submit", c.submitStart[i], handoff)
		out.log.add(int64(i), root, "coord.dispatch", handoff, runStart)
		out.log.add(int64(i), root, "agent.run", runStart, runEnd)
		out.log.add(int64(i), root, "relay.finalize", runEnd, fin)
		out.log.ops++
	}
	emit := make([]int64, len(c.emitNs))
	for k := range c.emitNs {
		emit[k] = c.emitNs[k].Load()
	}
	for _, q := range c.queue {
		queue = append(queue, q...)
	}
	setPercentiles(out.layers, "coord.submit_us", submit, 1e3, 0.5, 0.99)
	setPercentiles(out.layers, "coord.dispatch_wait_ms", dispatch, 1e6, 0.5, 0.9)
	setPercentiles(out.layers, "agent.run_us", run, 1e3, 0.5)
	setPercentiles(out.layers, "relay.finalize_lag_ms", finalize, 1e6, 0.5, 0.9)
	setPercentiles(out.layers, "source.emit_ns", emit, 1, 0.5, 0.99)
	setPercentiles(out.layers, "online.queue_wait_us", queue, 1e3, 0.5, 0.99)
	out.layers["gen.late_ms.p99"], _ = tail(nsToUnit(c.late, 1e6), 0.99)
	c.relay.analyzerCosts(out.layers)
	appends, compactions := c.journal.Stats()
	out.layers["coord.journal_appends_per_job"] = float64(appends-appends0) / float64(n)
	out.layers["coord.journal_compactions"] = float64(compactions - compactions0)
	out.layers["coord.journal_bytes"] = float64(c.journal.Size())
	out.layers["coord.backlog_max"] = float64(backlog)
	perOp := func(v uint64) float64 { return float64(v) / float64(n) }
	out.layers["process.allocs_per_op"] = perOp(m1.Mallocs - m0.Mallocs)
	out.layers["process.bytes_per_op"] = perOp(m1.TotalAlloc - m0.TotalAlloc)
	out.layers["gc.cycles"] = perOp(uint64(m1.NumGC - m0.NumGC))
	return out, nil
}

func (c *churn) close() {
	if c.stop != nil {
		c.stop()
		<-c.stopped
	}
	if c.sender != nil {
		c.sender.Close() //nolint:errcheck // stream teardown
	}
	if c.co != nil {
		c.co.Close() //nolint:errcheck // listener teardown
	}
	if c.journal != nil {
		c.journal.Close() //nolint:errcheck // scratch journal
	}
	if c.relay != nil {
		c.relay.close()
	}
	os.RemoveAll(c.dir)
}
