// Command bolotsim runs simulated probing experiments on one of the
// paper's paths and writes the traces. -delta accepts a single
// interval or a comma-separated sweep; sweep jobs run concurrently on
// internal/runner's worker pool with per-job seeds derived from
// -seed, so the traces are identical at any -workers value.
//
// Usage:
//
//	bolotsim [-path inria|pitt] [-delta 50ms | -delta 8ms,20ms,50ms]
//	         [-duration 10m] [-seed 42] [-noloss] [-nocross]
//	         [-workers N] [-out trace.csv] [-trace-dir traces/]
//	         [-online] [-relay host:port] [-linger 0s]
//	         [-log info] [-logfmt text|json] [-debug-addr :6060]
//	         [-version]
//
// -trace-dir additionally records every probe's lifecycle (sent,
// enqueued per hop, dropped, echoed, rtt) as one otrace JSONL file per
// job (job-NNN.jsonl); the files are byte-identical at any -workers
// value. -out writes each run's samples as a CSV trace.
//
// -online streams every job's events through the in-process analysis
// engine (internal/online): running loss statistics, live bottleneck-μ
// estimates, and workload histograms are served as JSON at /online on
// the -debug-addr server and as online.* gauges on /metrics while the
// sweep is in flight. -linger holds the process (and the debug
// endpoints) open for the given duration after the sweep so the final
// snapshots can be scraped.
//
// -relay streams the same job-tagged events to a netdyn-relay
// collector over TCP (otrace wire framing), so a remote aggregator
// computes the identical online analysis this process would.
//
// Sweep jobs report start/finish live through the structured logger,
// and the run ends with a one-line pool summary (wall time, worker
// utilization, cancelled-job count).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"path/filepath"
	"strings"
	"time"

	"netprobe/internal/core"
	"netprobe/internal/obs"
	"netprobe/internal/online"
	"netprobe/internal/pipestat"
	"netprobe/internal/runner"
	"netprobe/internal/source"
	"netprobe/internal/trace"
	"netprobe/internal/tshist"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("bolotsim: ")
	var (
		pathName = flag.String("path", "inria", "path to simulate: inria (Table 1) or pitt (Table 2)")
		deltas   = flag.String("delta", "50ms", "probe interval δ, or a comma-separated sweep (e.g. 8ms,20ms,50ms)")
		duration = flag.Duration("duration", 10*time.Minute, "experiment duration")
		seed     = flag.Int64("seed", 42, "root seed; per-run seeds are derived from it")
		noLoss   = flag.Bool("noloss", false, "disable random (faulty-interface) loss")
		noCross  = flag.Bool("nocross", false, "disable Internet cross traffic")
		workers  = flag.Int("workers", 0, "parallel simulation workers (0 = GOMAXPROCS)")
		out      = flag.String("out", "", "CSV trace output file; sweeps insert the δ before the extension")
		traceDir = flag.String("trace-dir", "",
			"directory for per-job probe-lifecycle event files (otrace JSONL); empty disables tracing")
		onlineOn = flag.Bool("online", false,
			"stream job events through the online analysis engine (serves /online on -debug-addr)")
		relay = flag.String("relay", "",
			"stream job events to a netdyn-relay collector at this address; empty disables")
		linger = flag.Duration("linger", 0,
			"keep the process (and -debug-addr endpoints) alive this long after the sweep")
		obsFlags    = obs.RegisterFlags(flag.CommandLine)
		tshistFlags = tshist.RegisterFlags(flag.CommandLine)
	)
	flag.Parse()
	// The online engine registers its /online debug handler, so it must
	// exist before Setup starts the -debug-addr server. The pipeline
	// monitor rides in the analyzer set, closing the online chain's
	// conservation ledger at the applied stage (internal/pipestat).
	var bus *online.Bus
	var eng *online.Engine
	if *onlineOn {
		mon := pipestat.NewMonitor(pipestat.Default.Chain("online"))
		bus = online.NewBus()
		eng = online.NewEngine(bus, 0, append(online.DefaultAnalyzers(obs.Default), mon)...)
		online.RegisterDebug(eng)
		obs.StatusSection("online", func() any {
			length, capacity := eng.Queue()
			return map[string]any{"queue_len": length, "queue_cap": capacity, "dropped": eng.Dropped()}
		})
	}
	pipestat.Default.Register()
	if _, err := tshistFlags.Setup(obs.Default, obsFlags.DebugAddr != ""); err != nil {
		log.Fatal(err)
	}
	if _, err := obsFlags.Setup(obs.Default); err != nil {
		log.Fatal(err)
	}

	preset, ok := core.PresetByName(*pathName)
	if !ok {
		log.Fatalf("unknown path %q (want inria or pitt)", *pathName)
	}

	var jobs []runner.Job
	for _, field := range strings.Split(*deltas, ",") {
		d, err := time.ParseDuration(strings.TrimSpace(field))
		if err != nil {
			log.Fatalf("bad -delta entry %q: %v", field, err)
		}
		cfg := preset.Config(d, *duration, 0)
		if *noLoss {
			for i := range cfg.Path.Hops {
				cfg.Path.Hops[i].LossProb = 0
			}
		}
		if *noCross {
			cfg.Cross = nil
		}
		jobs = append(jobs, runner.Job{
			Label:  fmt.Sprintf("%s δ=%v", preset.Name, d),
			Config: cfg,
		})
	}
	if len(jobs) == 0 {
		log.Fatal("no probe intervals given")
	}

	p := jobs[0].Config.Path
	fmt.Printf("route (%s):\n%s", p.Name, p.Traceroute())

	opts := []runner.Option{
		runner.Workers(*workers),
		runner.Metrics(obs.Default),
		runner.Progress(func(ev runner.Event) {
			switch ev.Kind {
			case runner.JobStart:
				slog.Info("job start", "label", ev.Label, "seed", ev.Seed, "worker", ev.Worker)
			case runner.JobFinish:
				if ev.Err != nil {
					slog.Error("job failed", "label", ev.Label, "err", ev.Err)
					return
				}
				slog.Info("job done", "label", ev.Label,
					"wall", ev.Wall.Round(time.Millisecond),
					"ulp", fmt.Sprintf("%.3f", ev.Stats.ULP))
			}
		}),
	}
	if *traceDir != "" {
		opts = append(opts, runner.Traces(*traceDir))
	}
	if bus != nil {
		// Produce stamps each event at the tap, counts it into the
		// online chain's ledger, and forwards to the bus; the engine-side
		// monitor closes the books at the applied stage.
		chain := pipestat.Default.Chain("online")
		chain.Dropped("bus", bus.Dropped)
		opts = append(opts, runner.Sink(chain.Produce(bus)))
	}
	closeRelay := func() error { return nil }
	if *relay != "" {
		sender, err := source.Dial(*relay)
		if err != nil {
			log.Fatal(err)
		}
		// The runner tags events with each job's label, so the relay's
		// analyzers bucket them exactly like a local -online run. The
		// wire branch keeps its own books: every tapped event ends up
		// sent or dropped (sticky stream errors), never lost silently.
		sink, closer := source.Uplink(pipestat.Default.Chain("wire"), sender, false)
		opts = append(opts, runner.Sink(sink))
		closeRelay = closer
		slog.Info("relaying events", "to", *relay)
	}
	results, summary := runner.RunAll(context.Background(), *seed, jobs, opts...)
	if err := closeRelay(); err != nil {
		slog.Warn("relay stream incomplete", "err", err)
	}
	if eng != nil {
		bus.Close()
		eng.Wait()
		if d := eng.Dropped(); d > 0 {
			slog.Warn("online analysis sampled, not exact", "dropped", d)
		}
	}
	if err := runner.FirstErr(results); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sweep: %s\n", summary)
	for _, r := range results {
		min, _ := r.Trace.MinRTT()
		fmt.Printf("%s\nmin RTT %v, %s (%v)\n", r.Trace, min, r.Stats, r.Wall.Round(time.Millisecond))
		if *out == "" {
			continue
		}
		name := *out
		if len(results) > 1 {
			ext := filepath.Ext(name)
			name = fmt.Sprintf("%s-%v%s", strings.TrimSuffix(name, ext), jobs[r.Index].Config.Delta, ext)
		}
		if err := trace.Save(name, r.Trace); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("trace written to %s\n", name)
	}
	if *linger > 0 {
		slog.Info("lingering; final analysis stays scrapeable", "for", *linger)
		time.Sleep(*linger)
	}
}
