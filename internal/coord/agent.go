package coord

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"netprobe/internal/netdyn"
	"netprobe/internal/online"
	"netprobe/internal/otrace"
	"netprobe/internal/source"
)

// Result is what an executor reports back through ctrl_complete.
type Result struct {
	Probes int
	Losses int
}

// RunFunc executes one pushed job. It receives a sink already tagged
// with the instance id (events emitted into it land in the relay's
// per-job analyzer buckets) and is bracketed by job_start/job_finish
// events, so the data plane sees the same shape a local runner job
// produces. ctx ends when the job should abort — agent shutdown, a
// lost coordinator connection (the coordinator will re-dispatch), or
// the spec's execution Deadline passing.
type RunFunc func(ctx context.Context, id string, spec Spec, sink otrace.Sink) (Result, error)

// AgentConfig configures RunAgent.
type AgentConfig struct {
	// Name identifies the agent to the coordinator; defaults to
	// "<hostname>-<pid>".
	Name string
	// Capacity is how many jobs the agent runs concurrently (default 1).
	Capacity int
	// Run executes jobs. Required.
	Run RunFunc
	// Sink receives the jobs' tagged measurement events — typically a
	// relay Sender (wrap in otrace.NewBounded if pacing matters).
	// Defaults to otrace.Discard.
	Sink otrace.Sink
	// Heartbeat is the control-connection liveness interval (default
	// 2s; negative disables). It also renews the agent's lease when the
	// coordinator runs with Config.LeaseTimeout.
	Heartbeat time.Duration
	// Backoff/BackoffMax shape the reconnect schedule (defaults 100ms
	// and 5s, doubled per attempt with ±50% netdyn.RetryJitter).
	Backoff    time.Duration
	BackoffMax time.Duration
	// Seed decorrelates concurrent agents' reconnect storms.
	Seed int64
	// AbandonGrace is how long past a spec's Deadline the agent waits
	// for a cancelled RunFunc to return before abandoning it: the job's
	// sink is severed (so a runaway executor can no longer pollute the
	// data plane) and the slot is reported back as a deadline failure.
	// Default 2s.
	AbandonGrace time.Duration
	// PendingCompletes caps the resend buffer of unacknowledged
	// completion reports retained across reconnects (default 256;
	// overflow drops the oldest, which the coordinator then re-queues
	// as a lost instance).
	PendingCompletes int
	// Dial opens the control connection; defaults to TCP.
	Dial func() (net.Conn, error)
	// Logf, if non-nil, logs connection and job lifecycle.
	Logf func(format string, args ...any)
}

// resendBuf retains completion reports until the coordinator acks
// them, so a completion emitted into a dead connection (or into a
// coordinator that died before settling it) is replayed after the next
// register instead of silently lost. The coordinator dedupes by
// instance id, so replaying an already-settled completion is harmless.
// Entries are the handful of fields a ctrl_complete frame carries, not
// whole otrace.Events: the buffer sits on the per-job hot path, and
// the fleet-load allocation budget pays for every retained byte.
type pendingComplete struct {
	job    string
	res    Result
	fault  string
	wallNs int64
}

func (p pendingComplete) event() otrace.Event {
	return completeEvent(p.job, p.res, p.fault, time.Duration(p.wallNs))
}

type resendBuf struct {
	mu   sync.Mutex
	pend []pendingComplete
	max  int
}

func (b *resendBuf) add(p pendingComplete) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.pend) >= b.max {
		copy(b.pend, b.pend[1:])
		b.pend = b.pend[:len(b.pend)-1]
	}
	b.pend = append(b.pend, p)
}

func (b *resendBuf) ack(id string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for i := range b.pend {
		if b.pend[i].job == id {
			copy(b.pend[i:], b.pend[i+1:])
			b.pend = b.pend[:len(b.pend)-1]
			return
		}
	}
}

func (b *resendBuf) snapshot() []pendingComplete {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]pendingComplete, len(b.pend))
	copy(out, b.pend)
	return out
}

// gateSink forwards to next until severed. It is how an abandoned
// (deadline-overrun, ctx-ignoring) executor is cut off from the data
// plane: events emitted after the sever are discarded before they
// reach the conservation-accounted sinks, so the books still balance.
type gateSink struct {
	next otrace.Sink
	off  atomic.Bool
}

func (g *gateSink) Emit(ev otrace.Event) {
	if g.off.Load() {
		return
	}
	g.next.Emit(ev)
}

// RunAgent connects to the coordinator at addr, registers, and
// executes pushed jobs until ctx ends. A lost connection cancels the
// in-flight jobs (the coordinator re-dispatches them) and reconnects
// with jittered exponential backoff, so agents survive coordinator
// restarts; unacknowledged completions are resent after the
// re-register, so work finished during a coordinator outage still
// settles exactly once. It returns ctx.Err() on shutdown.
func RunAgent(ctx context.Context, addr string, cfg AgentConfig) error {
	if cfg.Run == nil {
		return errors.New("coord: agent needs a Run executor")
	}
	if cfg.Name == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "agent"
		}
		cfg.Name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	if cfg.Capacity < 1 {
		cfg.Capacity = 1
	}
	if cfg.Sink == nil {
		cfg.Sink = otrace.Discard
	}
	if cfg.Heartbeat == 0 {
		cfg.Heartbeat = 2 * time.Second
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = 100 * time.Millisecond
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = 5 * time.Second
	}
	if cfg.AbandonGrace <= 0 {
		cfg.AbandonGrace = 2 * time.Second
	}
	if cfg.PendingCompletes <= 0 {
		cfg.PendingCompletes = 256
	}
	if cfg.Dial == nil {
		cfg.Dial = func() (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	buf := &resendBuf{max: cfg.PendingCompletes}
	backoff := cfg.Backoff
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		conn, err := cfg.Dial()
		if err != nil {
			cfg.Logf("agent %s: dial coordinator: %v", cfg.Name, err)
			if !sleepCtx(ctx, time.Duration(float64(backoff)*netdyn.RetryJitter(cfg.Seed, 0, attempt))) {
				return ctx.Err()
			}
			if backoff *= 2; backoff > cfg.BackoffMax {
				backoff = cfg.BackoffMax
			}
			continue
		}
		attempt, backoff = 0, cfg.Backoff
		err = agentSession(ctx, conn, cfg, buf)
		if ctx.Err() != nil {
			return ctx.Err()
		}
		cfg.Logf("agent %s: coordinator connection lost: %v", cfg.Name, err)
		if !sleepCtx(ctx, time.Duration(float64(cfg.Backoff)*netdyn.RetryJitter(cfg.Seed, 1, 0))) {
			return ctx.Err()
		}
	}
}

// agentSession speaks one control connection: register, resend
// unacked completions, heartbeats, then jobs until the stream ends.
// Jobs run concurrently (the coordinator respects the registered
// capacity); the session waits for them before returning, and a dead
// connection cancels them.
func agentSession(ctx context.Context, conn net.Conn, cfg AgentConfig, buf *resendBuf) error {
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	stop := context.AfterFunc(sctx, func() {
		conn.SetReadDeadline(time.Unix(1, 0)) //nolint:errcheck // best effort
	})
	defer stop()
	send := source.NewSender(conn)
	defer send.Close() //nolint:errcheck // control stream
	send.Emit(registerEvent(cfg.Name, cfg.Capacity))
	if err := send.Err(); err != nil {
		return err
	}
	if pend := buf.snapshot(); len(pend) > 0 {
		cfg.Logf("agent %s: resending %d unacked completions", cfg.Name, len(pend))
		for _, p := range pend {
			send.Emit(p.event())
		}
	}
	send.StartHeartbeats(cfg.Heartbeat)
	fr, err := otrace.NewFrameReader(conn)
	if err != nil {
		return err
	}
	var wg sync.WaitGroup
	defer wg.Wait()
	defer cancel() // a dead connection aborts in-flight jobs before the wait
	for {
		ev, err := fr.Next()
		if err != nil {
			return err
		}
		switch ev.Ev {
		case otrace.KindCtrlAck:
			buf.ack(ev.Job)
		case otrace.KindCtrlJob:
			if err := sctx.Err(); err != nil {
				// The agent is stopping and its read deadline is on the way.
				// A job accepted now would only fail on the cancelled
				// context and spend one of its attempts; leaving it lets the
				// coordinator re-queue it when this connection drops.
				return err
			}
			id, spec := jobFromEvent(ev)
			send.Emit(acceptEvent(id))
			cfg.Logf("agent %s: job %s accepted", cfg.Name, id)
			wg.Add(1)
			go func() {
				defer wg.Done()
				runJob(sctx, cfg, id, spec, send, buf)
			}()
		}
	}
}

// runJob brackets one execution with job_start/job_finish on the data
// plane and reports ctrl_complete on the control plane, retaining the
// report in the resend buffer until the coordinator acks it. A spec
// Deadline cancels the executor's context; an executor that then
// ignores the cancellation for AbandonGrace is abandoned — severed
// from the data plane and reported as a deadline failure — so a hung
// RunFunc cannot pin the agent's capacity slot.
func runJob(ctx context.Context, cfg AgentConfig, id string, spec Spec, ctrl *source.Sender, buf *resendBuf) {
	gate := &gateSink{next: online.Tag(cfg.Sink, id, 0)}
	start := time.Now()
	gate.Emit(otrace.Event{Ev: otrace.KindJobStart, Job: id, Name: spec.Name, Seed: spec.Seed})
	var res Result
	var err error
	if dl := spec.Deadline.D(); dl > 0 {
		// The deadline path needs the executor in a second goroutine so
		// the abandon timer can give up on it; the common no-deadline
		// path runs it inline (runJob already has its own goroutine) and
		// skips the goroutine, channel, and timer.
		jctx, cancel := context.WithTimeout(ctx, dl)
		defer cancel()
		type outcome struct {
			res Result
			err error
		}
		done := make(chan outcome, 1)
		go func() {
			res, err := cfg.Run(jctx, id, spec, gate)
			done <- outcome{res, err}
		}()
		t := time.NewTimer(dl + cfg.AbandonGrace)
		select {
		case out := <-done:
			t.Stop()
			res, err = out.res, out.err
		case <-t.C:
			gate.off.Store(true)
			err = fmt.Errorf("deadline %s exceeded: executor unresponsive, abandoned", dl)
			cfg.Logf("agent %s: job %s abandoned: executor ignored cancellation for %s",
				cfg.Name, id, cfg.AbandonGrace)
		}
	} else {
		res, err = cfg.Run(ctx, id, spec, gate)
	}
	gate.Emit(otrace.Event{Ev: otrace.KindJobFinish, Job: id,
		Probes: res.Probes, Losses: res.Losses})
	gate.off.Store(true)
	msg := ""
	if err != nil {
		msg = err.Error()
		cfg.Logf("agent %s: job %s failed: %v", cfg.Name, id, err)
	} else {
		cfg.Logf("agent %s: job %s done (%d probes, %d lost)", cfg.Name, id, res.Probes, res.Losses)
	}
	p := pendingComplete{job: id, res: res, fault: msg, wallNs: int64(time.Since(start))}
	buf.add(p)
	ctrl.Emit(p.event())
}

// sleepCtx sleeps for d, reporting false if ctx ended first.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
