package main

import (
	"context"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	"netprobe/internal/coord"
	"netprobe/internal/core"
	"netprobe/internal/faultinject"
	"netprobe/internal/netdyn"
	"netprobe/internal/obs"
	"netprobe/internal/otrace"
	"netprobe/internal/pipestat"
	"netprobe/internal/source"
)

// Agent mode: instead of running one probe session from flags, the
// process registers with a netdyn-coord coordinator and executes the
// job specs it pushes (executeJob) — "probe" jobs as real netdyn
// sessions against the spec's target, "sim" jobs as simulator runs of
// the named preset.
// Each job's lifecycle events stream to the -relay collector tagged
// with the job's instance id, so the relay's online analyzers bucket
// the whole fleet per job. The relay connection auto-redials
// (source.DialAuto): a relay restart costs events while it is down
// (counted, conserved) but never kills the agent.

// runAgentMode is main's -agent branch. It blocks until SIGINT/SIGTERM.
func runAgentMode(coordAddr, name string, capacity int, heartbeat time.Duration,
	relay string, faultsPath string) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Data plane: an auto-redialing relay stream behind a bounded
	// queue, accounted on the wire chain exactly like -relay in probe
	// mode. Without -relay the events are discarded (the control plane
	// still reports probe/loss totals per job).
	var sink otrace.Sink = otrace.Discard
	if relay != "" {
		sender := source.DialAuto(relay, source.Redial{
			Logf: func(format string, args ...any) {
				slog.Warn(fmt.Sprintf(format, args...))
			},
		})
		var closeRelay func() error
		sink, closeRelay = source.Uplink(pipestat.Default.Chain("wire"), sender, true)
		slog.Info("relaying job events", "to", relay)
		defer func() {
			if err := closeRelay(); err != nil {
				slog.Warn("relay stream incomplete", "err", err)
			}
		}()
	}

	// A -faults plan on the agent command line applies to every job
	// the agent runs; a plan inside a job spec overrides it.
	var defaultPlan *faultinject.Plan
	if faultsPath != "" {
		p, err := faultinject.Load(faultsPath)
		if err != nil {
			return err
		}
		defaultPlan = p
		slog.Info("fault plan loaded", "path", faultsPath)
	}

	fmt.Printf("agent %s: executing jobs from %s (capacity %d)\n", name, coordAddr, capacity)
	err := coord.RunAgent(ctx, coordAddr, coord.AgentConfig{
		Name:      name,
		Capacity:  capacity,
		Heartbeat: heartbeat,
		Sink:      sink,
		Run: func(ctx context.Context, id string, spec coord.Spec, sink otrace.Sink) (coord.Result, error) {
			return executeJob(ctx, spec, sink, defaultPlan)
		},
		Logf: func(format string, args ...any) {
			slog.Info(fmt.Sprintf(format, args...))
		},
	})
	if ctx.Err() != nil {
		slog.Info("agent shutting down")
		return nil
	}
	return err
}

// executeJob runs one pushed job spec with its events streaming into
// sink. A "sim" job runs the core preset named by Target; it is
// virtual-time, finishes in milliseconds, and checks ctx only before
// it starts. A "probe" job (the default mode) is a supervised netdyn
// session against Target: transient errors are retried, outages
// recorded as gaps, and the job's ctx ends it gracefully with partial
// results. The spec's fault plan, or defaultPlan when it has none,
// impairs the simulated path or the probe socket; the socket's faults
// are emitted into sink.
func executeJob(ctx context.Context, spec coord.Spec, sink otrace.Sink,
	defaultPlan *faultinject.Plan) (coord.Result, error) {
	plan := defaultPlan
	if spec.Faults != "" {
		p, err := faultinject.Parse([]byte(spec.Faults))
		if err != nil {
			return coord.Result{}, fmt.Errorf("job fault plan: %w", err)
		}
		plan = p
	}
	delta := spec.Delta.D()
	if delta <= 0 {
		delta = 50 * time.Millisecond
	}
	var tr *core.Trace
	switch spec.Mode {
	case "sim":
		preset, ok := core.PresetByName(spec.Target)
		if !ok {
			return coord.Result{}, fmt.Errorf("unknown sim preset %q", spec.Target)
		}
		cfg := preset.Config(delta, spec.Duration.D(), spec.Seed)
		if spec.Count > 0 {
			cfg.Count = spec.Count
		}
		if spec.PayloadBytes > 0 {
			cfg.PayloadSize = spec.PayloadBytes
		}
		cfg.Faults = plan
		cfg.Metrics = obs.Default
		cfg.Trace = sink
		if err := ctx.Err(); err != nil {
			return coord.Result{}, err
		}
		t, err := core.RunSim(cfg)
		if err != nil {
			return coord.Result{}, err
		}
		tr = t
	case "probe", "":
		if spec.Target == "" {
			return coord.Result{}, fmt.Errorf("probe job has no target")
		}
		n := spec.Count
		if n == 0 {
			dur := spec.Duration.D()
			if dur <= 0 {
				dur = 10 * time.Minute
			}
			n = int(dur / delta)
		}
		cfg := netdyn.ProbeConfig{
			Target:      spec.Target,
			Delta:       delta,
			Count:       n,
			PayloadSize: spec.PayloadBytes,
			Metrics:     obs.Default,
			Supervise:   &netdyn.SuperviseConfig{},
			Context:     ctx,
			Trace:       sink,
		}
		if plan != nil {
			open := faultSocket(plan, sink)
			conn, err := open()
			if err != nil {
				return coord.Result{}, err
			}
			cfg.Conn = conn
			cfg.Supervise.Redial = open
		}
		d, err := netdyn.ProbeDetailed(cfg)
		if err != nil {
			return coord.Result{}, err
		}
		tr = d.Trace
	default:
		return coord.Result{}, fmt.Errorf("unknown job mode %q", spec.Mode)
	}
	return coord.Result{Probes: tr.Len(), Losses: tr.Len() - tr.Received()}, nil
}
