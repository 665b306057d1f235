package source

import (
	"errors"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"netprobe/internal/obs"
	"netprobe/internal/otrace"
	"netprobe/internal/pipestat"
)

// sumAccounts totals one side of a chain snapshot's books.
func sumAccounts(m map[string]int64) int64 {
	var n int64
	for _, v := range m {
		n += v
	}
	return n
}

// checkBooks asserts the chain's conservation law, exactly: every
// produced event is applied or dropped.
func checkBooks(t *testing.T, cs pipestat.ChainSnapshot, produced int64) {
	t.Helper()
	if cs.Produced != produced {
		t.Fatalf("produced %d, want %d", cs.Produced, produced)
	}
	if got := sumAccounts(cs.Applied) + sumAccounts(cs.Dropped); got != cs.Produced || cs.Unaccounted != 0 {
		t.Fatalf("books do not balance: produced %d, applied %v + dropped %v = %d",
			cs.Produced, cs.Applied, cs.Dropped, got)
	}
}

// TestUplinkConservesAndSends: over a live loopback relay the uplink's
// books balance exactly after close, every event reaches the reader,
// Sent equals the event frames it decoded, and the heartbeats that
// also reached it are counted nowhere.
func TestUplinkConservesAndSends(t *testing.T) {
	for _, openLoop := range []bool{false, true} {
		openLoop := openLoop
		t.Run(fmt.Sprintf("openLoop=%v", openLoop), func(t *testing.T) {
			t.Parallel()
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			type tally struct{ events, heartbeats int64 }
			got := make(chan tally, 1)
			beat := make(chan struct{}) // closed at the first heartbeat
			go func() {
				var n tally
				defer func() { got <- n }()
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				defer conn.Close()
				fr, err := otrace.NewFrameReader(conn)
				if err != nil {
					return
				}
				for {
					ev, err := fr.Next()
					if err != nil {
						return
					}
					if ev.Ev == otrace.KindHeartbeat {
						if n.heartbeats++; n.heartbeats == 1 {
							close(beat)
						}
					} else {
						n.events++
					}
				}
			}()
			s, err := Dial(ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			chain := pipestat.NewLedger(obs.NewRegistry()).Chain("wire")
			sink, closer := Uplink(chain, s, openLoop)
			const n = 300
			for i := 0; i < n; i++ {
				sink.Emit(otrace.Event{Ev: otrace.KindProbeSent, Seq: i})
				if i == n/2 {
					// Let a 2 s heartbeat through mid-stream.
					select {
					case <-beat:
					case <-time.After(10 * time.Second):
						t.Fatal("no heartbeat reached the reader")
					}
				}
			}
			if err := closer(); err != nil {
				t.Fatalf("closer: %v", err)
			}
			read := <-got
			checkBooks(t, chain.Snapshot(), n)
			if s.Sent() != read.events || read.events != n {
				t.Fatalf("Sent %d, reader decoded %d events, emitted %d", s.Sent(), read.events, n)
			}
			if cs := chain.Snapshot(); cs.Applied["sender"] != n {
				t.Fatalf("heartbeats counted: applied %v for %d events", cs.Applied, n)
			}
		})
	}
}

// TestUplinkDeadPeer: against a peer that is gone, every event lands
// in a dropped account and the closer reports the stream's failure.
func TestUplinkDeadPeer(t *testing.T) {
	for _, openLoop := range []bool{false, true} {
		local, peer := net.Pipe()
		peer.Close()
		s := NewSender(local)
		chain := pipestat.NewLedger(obs.NewRegistry()).Chain("wire")
		sink, closer := Uplink(chain, s, openLoop)
		const n = 200
		for i := 0; i < n; i++ {
			sink.Emit(otrace.Event{Ev: otrace.KindProbeSent, Seq: i})
		}
		if err := closer(); err == nil || !errors.Is(err, io.ErrClosedPipe) {
			t.Fatalf("openLoop=%v: closer err %v, want the stream's failure", openLoop, err)
		}
		cs := chain.Snapshot()
		checkBooks(t, cs, n)
		if sumAccounts(cs.Applied) != 0 || sumAccounts(cs.Dropped) != n {
			t.Fatalf("openLoop=%v: applied %v, dropped %v; want all %d dropped",
				openLoop, cs.Applied, cs.Dropped, n)
		}
	}
}
