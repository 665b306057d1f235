// Command netdyn-echo runs the UDP echo server of the NetDyn
// measurement setup: it stamps and returns every probe packet it
// receives. Point netdyn-probe at it from the same or another host.
//
// The server logs each client session (address, packets, bytes) at
// Info level as traffic arrives and again on shutdown; -quiet
// suppresses the session logging.
//
// Usage:
//
//	netdyn-echo [-addr host:port] [-quiet] [-trace events.jsonl]
//	            [-faults plan.json]
//	            [-log info] [-logfmt text|json] [-debug-addr :6060]
//
// -trace records every echoed (and dropper-discarded) probe as otrace
// JSONL events on the echo host's clock — the turnaround half of the
// probe-lifecycle schema netdyn-probe writes.
//
// -faults impairs the echo socket's replies with a deterministic
// fault-injection plan (internal/faultinject JSON), so chaos tests can
// exercise the return path independently of the forward one.
//
// SIGINT or SIGTERM shuts the server down gracefully, flushing the
// event trace and printing the session totals.
package main

import (
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
	"netprobe/internal/netdyn"
	"netprobe/internal/obs"
	"netprobe/internal/otrace"
	"netprobe/internal/tshist"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("netdyn-echo: ")
	var (
		addr   = flag.String("addr", "0.0.0.0:7007", "UDP address to listen on")
		quiet  = flag.Bool("quiet", false, "suppress per-session logging")
		events = flag.String("trace", "", "probe-turnaround event output file (otrace JSONL); empty disables")
		faults = flag.String("faults", "",
			"fault-injection plan (JSON, see internal/faultinject) applied to echoed replies")
		obsFlags    = obs.RegisterFlags(flag.CommandLine)
		tshistFlags = tshist.RegisterFlags(flag.CommandLine)
	)
	flag.Parse()
	if _, err := tshistFlags.Setup(obs.Default, obsFlags.DebugAddr != ""); err != nil {
		log.Fatal(err)
	}
	if _, err := obsFlags.Setup(obs.Default); err != nil {
		log.Fatal(err)
	}

	var e *netdyn.Echoer
	if *faults != "" {
		plan, err := faultinject.Load(*faults)
		if err != nil {
			log.Fatal(err)
		}
		inner, err := net.ListenPacket("udp", *addr)
		if err != nil {
			log.Fatal(err)
		}
		e = netdyn.NewEchoerConn(faultinject.WrapPacketConn(inner, plan,
			faultinject.WithSeq(netdyn.PacketSeq),
			faultinject.WithRegistry(obs.Default)))
		slog.Info("fault plan loaded", "path", *faults)
	} else {
		var err error
		e, err = netdyn.NewEchoer(*addr)
		if err != nil {
			log.Fatal(err)
		}
	}
	defer e.Close()
	if *events != "" {
		w, err := otrace.Create(*events)
		if err != nil {
			log.Fatal(err)
		}
		b := otrace.NewBounded(w, 4096)
		e.SetTrace(b)
		defer func() {
			b.Close() //nolint:errcheck // always nil
			if err := w.Close(); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("event trace written to %s (%d events)\n", *events, w.Events())
		}()
	}
	fmt.Printf("echoing probes on %s\n", e.Addr())

	// logSessions reports every session whose packet count changed
	// since the last report, so idle sessions are logged once and
	// active ones show their progress.
	lastPackets := make(map[string]int64)
	logSessions := func() {
		if *quiet {
			return
		}
		for _, s := range e.Sessions() {
			if lastPackets[s.Client] == s.Packets {
				continue
			}
			lastPackets[s.Client] = s.Packets
			slog.Info("session", "client", s.Client,
				"packets", s.Packets, "bytes", s.Bytes,
				"active", s.Last.Sub(s.First).Round(time.Second))
		}
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	tick := time.NewTicker(10 * time.Second)
	defer tick.Stop()
	for {
		select {
		case <-sig:
			logSessions()
			fmt.Printf("\nechoed %d packets from %d sessions\n", e.Echoed(), len(e.Sessions()))
			return
		case <-tick.C:
			logSessions()
			slog.Debug("echo totals", "echoed", e.Echoed(), "dropped", e.Dropped())
		}
	}
}
