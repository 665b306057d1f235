// Command netdyn-probe sends UDP probe packets at a fixed interval to
// a netdyn-echo server and writes the resulting trace, reproducing the
// paper's data collection on a real network.
//
// While the run is in flight it periodically reports live path
// statistics through the structured logger: probes sent, received,
// and (settled) lost, the running unconditional and conditional loss
// probabilities, and the min/p50/p99 of the round-trip times so far.
//
// Usage:
//
//	netdyn-probe -target host:port [-delta 50ms] [-count 12000]
//	             [-size 32] [-clockres 0] [-out trace.csv]
//	             [-trace events.jsonl] [-report 10s]
//	             [-online] [-online-window N] [-relay host:port]
//	             [-supervise] [-faults plan.json]
//	             [-log info] [-logfmt text|json] [-debug-addr :6060]
//	             [-version]
//	netdyn-probe -agent coord:port [-agent-name x] [-capacity 1]
//	             [-agent-hb 2s] [-relay host:port] [-faults plan.json] [...]
//
// With no -count, the probe runs for the paper's 10 minutes
// (duration/delta packets). -report 0 disables the in-flight reports.
// -trace streams every probe's lifecycle events (run_start,
// probe_sent, rtt, gap) as otrace JSONL — the same schema the
// simulator writes — through a bounded queue so a slow disk never
// delays probe pacing.
//
// -online tees the same event stream into the in-process analysis
// engine (internal/online): running loss statistics, the live
// bottleneck-μ estimate, and the workload histogram are served as
// JSON at /online on the -debug-addr server while probes are still in
// flight. -online-window keeps only the trailing N probes in those
// statistics, so a long deployment reports current path behavior
// instead of an all-time average. The tee is a non-blocking bounded
// bus, so analysis can never delay probe pacing either.
//
// -relay streams the same events to a netdyn-relay collector over TCP
// (otrace wire framing), tagged with the probe target, so a central
// aggregator runs the online analysis for many probers at once. The
// relay sink sits behind the same kind of bounded queue: a slow or
// stalled relay drops events rather than delaying probe pacing.
//
// -supervise (on by default) runs the fault-tolerant session:
// transient send errors are retried with backoff, fatal socket errors
// recreate the socket, and unreachable stretches are recorded as
// outage gaps that the final loss statistics exclude. -faults applies
// a deterministic fault-injection plan (internal/faultinject JSON) to
// the probe socket — the chaos-testing path.
//
// -agent switches the process into fleet mode: it registers with a
// netdyn-coord coordinator and executes the job specs the coordinator
// pushes — "probe" jobs as supervised netdyn sessions, "sim" jobs as
// simulator runs of the named preset — streaming each job's events to
// the -relay collector tagged with the job's instance id. The relay
// stream auto-redials with jittered backoff, so a relay restart costs
// events while it is down (counted and conserved in the wire chain's
// ledger) but never kills the agent; likewise the agent reconnects to
// a restarted coordinator and in-flight jobs are re-dispatched.
//
// SIGINT or SIGTERM ends the run gracefully: the sender stops,
// stragglers are drained, and the partial trace, event file, and loss
// statistics are flushed before exit.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"netprobe/internal/faultinject"
	"netprobe/internal/loss"
	"netprobe/internal/netdyn"
	"netprobe/internal/obs"
	"netprobe/internal/online"
	"netprobe/internal/otrace"
	"netprobe/internal/pipestat"
	"netprobe/internal/source"
	"netprobe/internal/trace"
	"netprobe/internal/tshist"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("netdyn-probe: ")
	var (
		target   = flag.String("target", "", "echo host address (required)")
		delta    = flag.Duration("delta", 50*time.Millisecond, "interval between probes")
		count    = flag.Int("count", 0, "number of probes (0 = 10 minutes worth)")
		size     = flag.Int("size", netdyn.DefaultPayload, "UDP payload bytes")
		clockRes = flag.Duration("clockres", 0, "emulated clock resolution (e.g. 3.90625ms)")
		out      = flag.String("out", "", "CSV trace output file; empty = summary only")
		events   = flag.String("trace", "", "probe-lifecycle event output file (otrace JSONL); empty disables")
		report   = flag.Duration("report", 10*time.Second, "in-flight progress report interval (0 disables)")
		onlineOn = flag.Bool("online", false,
			"stream probe events through the online analysis engine (serves /online on -debug-addr)")
		onlineWin = flag.Int("online-window", 0,
			"cap the online analyzers to the trailing N probes (0 = all-time statistics)")
		relay = flag.String("relay", "",
			"stream probe events to a netdyn-relay collector at this address; empty disables")
		supervise = flag.Bool("supervise", true,
			"fault-tolerant session: retry transient send errors, recreate the socket on fatal ones, record outages as gaps")
		faults = flag.String("faults", "",
			"fault-injection plan (JSON, see internal/faultinject) applied to the probe socket")
		agent = flag.String("agent", "",
			"fleet mode: register with the netdyn-coord coordinator at this address and execute pushed jobs (ignores -target)")
		agentName = flag.String("agent-name", "", "agent name in fleet mode (default <hostname>-<pid>)")
		capacity  = flag.Int("capacity", 1, "concurrent jobs this agent accepts in fleet mode")
		agentHB   = flag.Duration("agent-hb", 2*time.Second,
			"control-plane heartbeat interval in fleet mode; keep well under the coordinator's -lease")
		obsFlags    = obs.RegisterFlags(flag.CommandLine)
		tshistFlags = tshist.RegisterFlags(flag.CommandLine)
	)
	flag.Parse()
	if *agent != "" {
		// Fleet mode: the coordinator pushes the job specs; flags that
		// describe a single session (-target, -delta, ...) are unused.
		// The debug endpoints still serve /statusz, /metrics, and the
		// wire chain's conservation ledger.
		pipestat.Default.Register()
		if _, err := tshistFlags.Setup(obs.Default, obsFlags.DebugAddr != ""); err != nil {
			log.Fatal(err)
		}
		if _, err := obsFlags.Setup(obs.Default); err != nil {
			log.Fatal(err)
		}
		name := *agentName
		if name == "" {
			host, _ := os.Hostname()
			if host == "" {
				host = "agent"
			}
			name = fmt.Sprintf("%s-%d", host, os.Getpid())
		}
		if err := runAgentMode(*agent, name, *capacity, *agentHB, *relay, *faults); err != nil {
			log.Fatal(err)
		}
		return
	}
	// The online engine registers its /online debug handler, so it must
	// exist before Setup starts the -debug-addr server. The pipeline
	// monitor rides in the analyzer set, closing the online chain's
	// conservation ledger at the applied stage (internal/pipestat).
	var bus *online.Bus
	var eng *online.Engine
	if *onlineOn {
		mon := pipestat.NewMonitor(pipestat.Default.Chain("online"))
		bus = online.NewBus()
		eng = online.NewEngine(bus, 0,
			append(online.DefaultAnalyzers(obs.Default, online.WithWindow(*onlineWin)), mon)...)
		online.RegisterDebug(eng)
		obs.StatusSection("online", func() any {
			length, capacity := eng.Queue()
			return map[string]any{"queue_len": length, "queue_cap": capacity, "dropped": eng.Dropped()}
		})
	}
	pipestat.Default.Register()
	store, err := tshistFlags.Setup(obs.Default, obsFlags.DebugAddr != "")
	if err != nil {
		log.Fatal(err)
	}
	if _, err := obsFlags.Setup(obs.Default); err != nil {
		log.Fatal(err)
	}
	if *target == "" {
		log.Fatal("missing -target (run netdyn-echo somewhere first)")
	}
	n := *count
	if n == 0 {
		n = int(10 * time.Minute / *delta)
	}
	// SIGINT/SIGTERM cancels the run context: the sender stops, the
	// drain still happens, and every deferred flush below runs before
	// the process exits — a truncated run leaves readable artifacts.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cfg := netdyn.ProbeConfig{
		Target:      *target,
		Delta:       *delta,
		Count:       n,
		PayloadSize: *size,
		ClockRes:    *clockRes,
		Context:     ctx,
		Metrics:     obs.Default,
	}
	if *supervise {
		cfg.Supervise = &netdyn.SuperviseConfig{}
	}
	// run owns everything that must be flushed on every exit path; its
	// defers run even when the probe fails, which a bare log.Fatal in
	// main would skip.
	if err := run(cfg, bus, eng, store, *events, *out, *relay, *report, *faults); err != nil {
		log.Fatal(err)
	}
}

func run(cfg netdyn.ProbeConfig, bus *online.Bus, eng *online.Engine, store *tshist.Store,
	events, out, relay string, report time.Duration, faultsPath string) error {
	fmt.Printf("probing %s: %d probes of %d bytes, δ=%v\n", cfg.Target, cfg.Count, cfg.PayloadSize, cfg.Delta)
	var sinks []otrace.Sink
	if events != "" {
		w, err := otrace.Create(events)
		if err != nil {
			return err
		}
		// The trace branch keeps its own conservation books: produced at
		// the tap, dropped by the bounded queue, applied by the writer.
		chain := pipestat.Default.Chain("trace")
		b := otrace.NewBounded(w, 4096)
		chain.Applied("writer", w.Events)
		chain.Dropped("queue", b.Dropped)
		tsink := chain.Produce(b)
		sinks = append(sinks, tsink)
		if store != nil {
			// Alert fire/clear events land in the same JSONL trace as
			// probe lifecycles — entering through the produce tap so
			// the trace chain's conservation books stay balanced. They
			// never feed the online bus: alerts are judgements about
			// measurements, not measurements.
			store.SetAlerts(tsink)
		}
		defer func() {
			b.Close() //nolint:errcheck // always nil
			if err := w.Close(); err != nil {
				slog.Error("closing event trace", "err", err)
				return
			}
			if d := b.Dropped(); d > 0 {
				slog.Warn("event trace incomplete", "dropped", d)
			}
			fmt.Printf("event trace written to %s (%d events)\n", events, w.Events())
		}()
	}
	if bus != nil {
		// Events are tagged with the target so the /online snapshots
		// carry a meaningful job name; Produce stamps them for stage-lag
		// tracing and counts them into the online chain's ledger.
		chain := pipestat.Default.Chain("online")
		chain.Dropped("bus", bus.Dropped)
		sinks = append(sinks, chain.Produce(online.Tag(bus, cfg.Target, 0)))
	}
	if relay != "" {
		sender, err := source.Dial(relay)
		if err != nil {
			return err
		}
		// Tagged like the local bus so the relay's analyzers key this
		// prober by its target. The uplink is open-loop: a stalled relay
		// can only lose events, never delay probe pacing, and every loss
		// lands in the wire chain's books (queue drops or sender drops).
		sink, closeRelay := source.Uplink(pipestat.Default.Chain("wire"), sender, true)
		sinks = append(sinks, online.Tag(sink, cfg.Target, 0))
		slog.Info("relaying events", "to", relay)
		defer func() {
			if err := closeRelay(); err != nil {
				slog.Warn("relay stream incomplete", "err", err)
			}
		}()
	}
	cfg.Trace = otrace.Multi(sinks...)
	if faultsPath != "" {
		plan, err := faultinject.Load(faultsPath)
		if err != nil {
			return err
		}
		open := faultSocket(plan, cfg.Trace)
		if cfg.Conn, err = open(); err != nil {
			return err
		}
		if cfg.Supervise != nil {
			// Recreated sockets stay impaired: the plan survives redials.
			cfg.Supervise.Redial = open
		}
		slog.Info("fault plan loaded", "path", faultsPath)
	}
	if report > 0 {
		cfg.ReportEvery = report
		cfg.Report = func(r netdyn.ProbeReport) {
			slog.Info("probe progress",
				"elapsed", r.Elapsed.Round(time.Second),
				"sent", r.Sent, "recv", r.Received,
				"lost", r.Lost, "inflight", r.InFlight,
				"ulp", fmt.Sprintf("%.3f", r.ULP),
				"clp", fmt.Sprintf("%.3f", r.CLP),
				"rtt_min", r.RTTMin.Round(time.Millisecond),
				"rtt_p50", r.RTTP50.Round(time.Millisecond),
				"rtt_p99", r.RTTP99.Round(time.Millisecond))
		}
	}
	d, err := netdyn.ProbeDetailed(cfg)
	if eng != nil {
		bus.Close()
		eng.Wait()
		if n := eng.Dropped(); n > 0 {
			slog.Warn("online analysis sampled, not exact", "dropped", n)
		}
	}
	if err != nil {
		return err
	}
	tr := d.Trace
	if d.Interrupted {
		fmt.Printf("interrupted by signal after %d of %d probes; partial results follow\n",
			len(tr.Samples), cfg.Count)
	}
	st := loss.AnalyzeExcluding(tr.LossIndicator(), d.Excluded())
	min, _ := tr.MinRTT()
	fmt.Printf("%s\nmin RTT %v, %s\n", tr, min, st)
	if len(d.Gaps) > 0 {
		excluded := 0
		for _, g := range d.Gaps {
			excluded += g.Count
		}
		fmt.Printf("%d outage gap(s), %d probes excluded from the loss statistics\n",
			len(d.Gaps), excluded)
	}
	if out != "" {
		if err := trace.Save(out, tr); err != nil {
			return err
		}
		fmt.Printf("trace written to %s\n", out)
	}
	return nil
}

// faultSocket returns an opener of UDP sockets impaired by plan, with
// every injected fault emitted into sink. It opens a session's first
// socket and serves as its Supervise.Redial, so recreated sockets stay
// impaired.
func faultSocket(plan *faultinject.Plan, sink otrace.Sink) func() (net.PacketConn, error) {
	return func() (net.PacketConn, error) {
		inner, err := net.ListenPacket("udp", "")
		if err != nil {
			return nil, err
		}
		return faultinject.WrapPacketConn(inner, plan,
			faultinject.WithSeq(netdyn.PacketSeq),
			faultinject.WithSink(sink),
			faultinject.WithRegistry(obs.Default)), nil
	}
}
