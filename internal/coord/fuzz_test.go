package coord_test

import (
	"net"
	"testing"
	"time"

	"netprobe/internal/coord"
	"netprobe/internal/otrace"
)

// frames encodes events as a control-stream body, without the stream
// header.
func frames(tb testing.TB, evs ...otrace.Event) []byte {
	tb.Helper()
	var out []byte
	for _, ev := range evs {
		var err error
		if out, err = otrace.AppendFrame(out, ev); err != nil {
			tb.Fatal(err)
		}
	}
	return out
}

// FuzzHandle drives the coordinator's per-connection handler with the
// stream magic plus arbitrary bytes on one connection, with one job
// ("raced") waiting. Whatever the bytes, the coordinator must not
// panic, its Counts must agree with its Status, and it must keep
// serving: a fresh agent registers, and a job submitted to it settles
// exactly once.
func FuzzHandle(f *testing.F) {
	register := func(name string) otrace.Event {
		return otrace.Event{Ev: otrace.KindCtrlRegister, Seq: -1, Name: name, Count: 1}
	}
	complete := func(id string, probes int, fault string) otrace.Event {
		return otrace.Event{Ev: otrace.KindCtrlComplete, Seq: -1, Job: id, Probes: probes, Fault: fault}
	}
	// The sessions of race_test.go and lease_test.go.
	f.Add(frames(f, register("fake"), complete("raced", 7, ""), complete("raced", 99, "")))
	f.Add(frames(f, register("fake"), complete("raced", 0, "probe wedged")))
	f.Add(frames(f, register("zombie")))
	f.Add(frames(f, register("a1"),
		otrace.Event{Ev: otrace.KindCtrlAccept, Seq: -1, Job: "raced"},
		otrace.Event{Ev: otrace.KindHeartbeat, Seq: -1, SentNs: 1},
		complete("raced", 0, "context deadline exceeded"),
		complete("raced", 6, "")))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		c := startCoord(t, coord.Config{})
		c.Submit(coord.Spec{Name: "raced"})

		conn, err := net.Dial("tcp", c.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		conn.SetDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck // test bound
		// A write error means the coordinator already hung up.
		conn.Write(append(otrace.AppendStreamHeader(nil), data...)) //nolint:errcheck // see above
		// Half-close and drain, so the coordinator reads every byte
		// before it sees the end of the stream.
		conn.(*net.TCPConn).CloseWrite() //nolint:errcheck // peer may be gone
		buf := make([]byte, 4096)
		for {
			if _, err := conn.Read(buf); err != nil {
				break
			}
		}
		conn.Close() //nolint:errcheck // drained

		// The stream has ended, so every agent it registered is listed;
		// once all are disconnected the table is quiescent.
		for _, a := range c.Status().Agents {
			waitDisconnected(t, c, a.Agent)
		}
		checkCounts(t, c)

		// A fresh agent still gets work: the new job, plus "raced" when
		// the session left it pending.
		raced, _ := c.Job("raced")
		fake := dialFake(t, c.Addr().String(), "after", 2)
		id := c.Submit(coord.Spec{Name: "after"})
		want := map[string]bool{id: true}
		if raced.State == coord.StatePending {
			want["raced"] = true
		}
		for range want {
			job := fake.next(otrace.KindCtrlJob)
			if !want[job.Job] {
				t.Fatalf("fresh agent got job %q, want one of %v", job.Job, want)
			}
			fake.complete(job.Job, 7, "")
		}
		fake.complete(id, 99, "") // a duplicate report dedupes
		for i := 0; i <= len(want); i++ {
			fake.next(otrace.KindCtrlAck)
		}
		if err := c.WaitIdle(waitCtx(t)); err != nil {
			t.Fatal(err)
		}
		js, _ := c.Job(id)
		if js.State != coord.StateCompleted || js.Attempts != 1 || js.Agent != "after" || js.Probes != 7 {
			t.Fatalf("job %+v, want settled once by the fresh agent with the first report's 7 probes", js)
		}
		checkCounts(t, c)
	})
}

// checkCounts: Counts equals Status's job counts and the tally of its
// rows (every row is listed while the table holds fewer than 64 jobs).
func checkCounts(t *testing.T, c *coord.Coordinator) {
	t.Helper()
	st, jc := c.Status(), c.Counts()
	var tally coord.JobCounts
	for _, j := range st.Recent {
		switch j.State {
		case coord.StatePending:
			tally.Pending++
		case coord.StateRunning:
			tally.Running++
		case coord.StateCompleted:
			tally.Completed++
		case coord.StateFailed:
			tally.Failed++
		}
	}
	if st.Jobs != jc || tally != jc {
		t.Fatalf("Counts %+v, Status counts %+v, Status rows %+v", jc, st.Jobs, tally)
	}
}
