// Command netdyn-relay aggregates probe-lifecycle event streams from
// remote producers into one online analysis engine — the measurement
// plane's collection point. Probers (netdyn-probe -relay), simulators
// (bolotsim -relay), and sweep drivers (experiments -relay) dial the
// relay and stream their events over TCP in the otrace binary wire
// framing; the relay fans every connection into the in-process online
// engine and serves the aggregated analysis at /online and the
// per-source counters (source.events, source.dropped, relay.conns) at
// /metrics on the -debug-addr server.
//
// Usage:
//
//	netdyn-relay [-listen 127.0.0.1:7777] [-trace events.jsonl]
//	             [-shards 1] [-online-window N] [-lossy] [-queue 1024]
//	             [-stale-after 30s] [-linger 0s]
//	             [-log info] [-logfmt text|json] [-debug-addr :6060]
//	             [-version]
//
// Events arrive already tagged with their job identity (online.Tag on
// the producing side), so the relay's analyzers bucket them per job
// exactly as a local engine would: a sweep relayed from another
// machine produces the same /online numbers the producing process
// would have computed itself.
//
// By default each connection is read under TCP flow control, so a
// bulk transfer (a replayed trace, a finished sim) arrives complete
// and the relayed analysis is exact. -lossy decouples each connection
// with a bounded queue instead: a slow relay drops events (counted as
// source.dropped{source=...}) rather than backpressuring the peer.
//
// -trace additionally writes every relayed event to an otrace JSONL
// file (truncated at start) — the relay as a durable trace collector.
//
// -shards N replaces the single online engine with a pool of N
// engines hashed by job tag (online.ShardIndex): per-job event order
// is preserved inside a shard while shards dispatch in parallel, so a
// fleet of concurrent sessions no longer serializes on one dispatcher.
// The merged analysis at /online is bit-identical to what one engine
// would produce; /statusz's online section and the
// online.shard.queue_len / online.shard.dropped gauges show per-shard
// occupancy.
//
// The relay watches itself the way it watches paths: the -debug-addr
// server's /healthz reports readiness (degraded while any connected
// source has been silent past -stale-after), /statusz reports the
// per-source table (event/drop totals, last-event age, heartbeat clock
// skew) plus the pipeline ledger, and /metrics carries the
// pipeline.events / pipeline.lag stage series with the
// pipeline.unaccounted conservation gauge (see internal/pipestat).
//
// SIGINT or SIGTERM drains connected streams (bounded by a 5 s grace
// period), flushes the analyzers, and exits; -linger then holds the
// debug endpoints open so final snapshots can be scraped.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"netprobe/internal/obs"
	"netprobe/internal/online"
	"netprobe/internal/otrace"
	"netprobe/internal/pipestat"
	"netprobe/internal/source"
	"netprobe/internal/tshist"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("netdyn-relay: ")
	var (
		listen = flag.String("listen", "127.0.0.1:7777", "address to accept relayed event streams on")
		events = flag.String("trace", "",
			"write every relayed event to this otrace JSONL file; empty disables")
		shards = flag.Int("shards", 1,
			"online engine shards, hashed by job tag (1 = single engine)")
		onlineWin = flag.Int("online-window", 0,
			"cap the online analyzers to the trailing N probes (0 = all-time statistics)")
		lossy = flag.Bool("lossy", false,
			"drop events (counted as source.dropped) instead of backpressuring slow peers")
		queue      = flag.Int("queue", 1024, "per-connection queue capacity in -lossy mode")
		staleAfter = flag.Duration("stale-after", 30*time.Second,
			"mark a connected source degraded on /healthz after this much silence (0 disables)")
		linger = flag.Duration("linger", 0,
			"keep the process (and -debug-addr endpoints) alive this long after shutdown")
		obsFlags    = obs.RegisterFlags(flag.CommandLine)
		tshistFlags = tshist.RegisterFlags(flag.CommandLine)
	)
	flag.Parse()
	// The online pool registers its /online debug handler, so it must
	// exist before Setup starts the -debug-addr server. Each shard
	// carries its own pipeline monitor in its analyzer set; since every
	// NewMonitor call replaces the chain's "analyzers" account, one
	// summed closure over all shard monitors is re-registered below so
	// the ledger closes over the whole pool.
	chain := pipestat.Default.Chain("relay")
	var monitors []*pipestat.Monitor
	pool := online.NewPool(*shards, 0, func(int) []online.Analyzer {
		mon := pipestat.NewMonitor(chain)
		monitors = append(monitors, mon)
		return append(online.DefaultAnalyzers(obs.Default, online.WithWindow(*onlineWin)), mon)
	})
	chain.Applied("analyzers", func() int64 {
		var n int64
		for _, m := range monitors {
			n += m.Applied()
		}
		return n
	})
	online.RegisterDebug(pool)
	pool.ExportMetrics(obs.Default)
	pipestat.Default.Register()
	obs.StatusSection("online", func() any { return pool.Status() })
	// Not ready until the listener is bound; run clears this.
	obs.DefaultHealth.SetError("listener", errNotListening)
	store, err := tshistFlags.Setup(obs.Default, obsFlags.DebugAddr != "")
	if err != nil {
		log.Fatal(err)
	}
	if _, err := obsFlags.Setup(obs.Default); err != nil {
		log.Fatal(err)
	}
	if err := run(*listen, *events, pool, store, chain, *lossy, *queue, *staleAfter); err != nil {
		log.Fatal(err)
	}
	if *linger > 0 {
		slog.Info("lingering; final analysis stays scrapeable", "for", *linger)
		time.Sleep(*linger)
	}
}

// errNotListening is the readiness condition the relay starts in.
var errNotListening = errors.New("listener not bound yet")

func run(listen, events string, pool *online.Pool, store *tshist.Store,
	chain *pipestat.Chain, lossy bool, queue int, staleAfter time.Duration) error {
	// The relayed events already carry Job/Index tags from their
	// producers, so the pool is fed directly — no re-tagging; the pool
	// hashes each event to its job's shard.
	sinks := []otrace.Sink{pool}
	if events != "" {
		w, err := otrace.Create(events)
		if err != nil {
			return err
		}
		sinks = append(sinks, w)
		// The trace-file branch conserves on its own chain: delivered
		// events in, writer events out (the Writer is synchronous and
		// lossless, so this book should always balance).
		trace := pipestat.Default.Chain("relay.trace")
		trace.Applied("writer", w.Events)
		if store != nil {
			// Alert fire/clear events append to the same JSONL trace
			// as the relayed streams, entering through a produce tap so
			// the writer's applied count stays balanced. They never
			// feed the analyzer bus: alerts are judgements about
			// measurements, not measurements.
			store.SetAlerts(trace.Produce(w))
		}
		defer func() {
			if err := w.Close(); err != nil {
				slog.Error("closing event trace", "err", err)
				return
			}
			fmt.Printf("event trace written to %s (%d events)\n", events, w.Events())
		}()
	}

	ln, err := net.Listen("tcp", listen)
	if err != nil {
		obs.DefaultHealth.SetError("listener", err)
		return err
	}
	srv, err := source.Serve(ln, source.ServerConfig{
		Sink:       otrace.Multi(sinks...),
		Metrics:    obs.Default,
		Lossy:      lossy,
		Queue:      queue,
		StaleAfter: staleAfter,
		Health:     obs.DefaultHealth,
		Logf: func(format string, args ...any) {
			slog.Info(fmt.Sprintf(format, args...))
		},
	})
	if err != nil {
		return err
	}
	obs.DefaultHealth.SetError("listener", nil) // bound and accepting: ready
	obs.StatusSection("sources", func() any { return srv.Sources() })
	// The relay chain's books: ingress (delivered + queue drops) must
	// equal the queue drops plus the bus drops plus what the analyzers
	// applied, once drained.
	chain.Produced("ingress", func() int64 {
		delivered, dropped := srv.Totals()
		return delivered + dropped
	})
	chain.Dropped("queue", func() int64 { _, dropped := srv.Totals(); return dropped })
	chain.Dropped("bus", pool.Dropped)
	if events != "" {
		pipestat.Default.Chain("relay.trace").Produced("delivered",
			func() int64 { delivered, _ := srv.Totals(); return delivered })
	}
	fmt.Printf("relaying event streams on %s\n", srv.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	slog.Info("shutting down; draining connected streams")
	if err := srv.Close(); err != nil {
		slog.Error("closing listener", "err", err)
	}
	pool.Close()
	pool.Wait()
	if n := pool.Dropped(); n > 0 {
		slog.Warn("online analysis sampled, not exact", "dropped", n)
	}
	return nil
}
