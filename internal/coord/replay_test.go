package coord_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"netprobe/internal/coord"
	"netprobe/internal/otrace"
)

// The tests in this file pin one property of the job table: replaying
// the journal yields the table the live coordinator shows, row for
// row, because both are folds of the same ctrl_* frames.

// report sends one ctrl_complete from f and waits for its ack. The
// coordinator acks under the lock it settles under, so any later call
// that takes that lock (Job, Counts, Status) sees the settlement.
func report(f *fakeAgent, id string, probes, losses int, errMsg string) {
	f.t.Helper()
	f.send.Emit(otrace.Event{Ev: otrace.KindCtrlComplete, Seq: -1,
		Job: id, Probes: probes, Losses: losses, Fault: errMsg})
	if err := f.send.Err(); err != nil {
		f.t.Fatal(err)
	}
	f.next(otrace.KindCtrlAck)
}

// syncFake waits until the coordinator has handled every frame f sent
// before, including its register and the dispatch that follows it: a
// completion for an id the table does not hold is acked and changes
// nothing.
func syncFake(f *fakeAgent) {
	f.t.Helper()
	report(f, "no such job", 0, 0, "")
}

// checkReplay replays the journal at path and compares every row with
// the live coordinator's. The caller guarantees the coordinator is
// quiescent: no frame is in flight and no sweep is due.
func checkReplay(t *testing.T, c *coord.Coordinator, path string, ids []string, where string) {
	t.Helper()
	live := make(map[string]coord.JobStatus, len(ids))
	for _, id := range ids {
		row, ok := c.Job(id)
		if !ok {
			t.Fatalf("%s: job %s missing from the live table", where, id)
		}
		live[id] = row
	}
	counts := c.Counts()
	rec, err := coord.Recover(path)
	if err != nil {
		t.Fatalf("%s: %v", where, err)
	}
	if len(rec.Jobs) != len(ids) || rec.Counts() != counts {
		t.Fatalf("%s: replay holds %d jobs %+v, live %d jobs %+v",
			where, len(rec.Jobs), rec.Counts(), len(ids), counts)
	}
	for _, rj := range rec.Jobs {
		row, ok := live[rj.ID]
		if !ok || rj.State != row.State || rj.Agent != row.Agent || rj.Attempts != row.Attempts ||
			rj.Probes != row.Probes || rj.Losses != row.Losses || rj.Err != row.Error {
			t.Fatalf("%s: replay %s = {%s agent=%q a%d p%d l%d err=%q}, live {%s agent=%q a%d p%d l%d err=%q}",
				where, rj.ID, rj.State, rj.Agent, rj.Attempts, rj.Probes, rj.Losses, rj.Err,
				row.State, row.Agent, row.Attempts, row.Probes, row.Losses, row.Error)
		}
	}
}

// TestReplayKeepsFailedAttemptCounts: an instance whose last attempt
// failed replays with that attempt's probe and loss counts, as the
// live table shows them.
func TestReplayKeepsFailedAttemptCounts(t *testing.T) {
	path := journalPath(t)
	c := startKillable(t, path, coord.Config{MaxAttempts: 2}).c
	fa := dialFake(t, c.Addr().String(), "fa", 1)
	id := c.Submit(coord.Spec{Name: "flaky"})
	fa.next(otrace.KindCtrlJob)
	report(fa, id, 7, 1, "first attempt failed")
	fa.next(otrace.KindCtrlJob) // the retry falls back to the only agent
	if js, _ := c.Job(id); js.State != coord.StateRunning || js.Probes != 7 || js.Losses != 1 {
		t.Fatalf("live row %+v, want the retry running with the first attempt's 7 probes", js)
	}
	checkReplay(t, c, path, []string{id}, "after the retry's dispatch")
	report(fa, id, 9, 2, "second attempt failed")
	if js, _ := c.Job(id); js.State != coord.StateFailed || js.Attempts != 2 || js.Probes != 9 || js.Losses != 2 {
		t.Fatalf("live row %+v, want failed on attempt 2 with 9 probes and 2 losses", js)
	}
	checkReplay(t, c, path, []string{id}, "after the final failure")
}

// TestReplayKeepsLateSettlingAgent: a success from the agent a
// deadline sweep took the instance away from settles it, and the
// replayed row names that agent, not the one it was re-dispatched to.
func TestReplayKeepsLateSettlingAgent(t *testing.T) {
	path := journalPath(t)
	c := startKillable(t, path, coord.Config{DeadlineSlack: time.Millisecond, SweepEvery: time.Hour}).c
	fa := dialFake(t, c.Addr().String(), "fa", 1)
	id := c.Submit(coord.Spec{Name: "slow", Deadline: coord.Duration(time.Millisecond)})
	fa.next(otrace.KindCtrlJob)
	fb := dialFake(t, c.Addr().String(), "fb", 1)
	syncFake(fb)
	time.Sleep(5 * time.Millisecond) // past Deadline + DeadlineSlack
	c.SweepNow()
	if job := fb.next(otrace.KindCtrlJob); job.Job != id {
		t.Fatalf("fb got job %q, want the re-dispatched %q", job.Job, id)
	}
	report(fa, id, 5, 1, "")
	if js, _ := c.Job(id); js.State != coord.StateCompleted || js.Agent != "fa" || js.Attempts != 2 {
		t.Fatalf("live row %+v, want completed by fa on attempt 2", js)
	}
	checkReplay(t, c, path, []string{id}, "after the late success")
}

// replaySession is one randomized coordinator session driven frame by
// frame through fake agents.
type replaySession struct {
	t     *testing.T
	rng   *rand.Rand
	path  string
	cfg   coord.Config
	jopts coord.JournalOptions
	c     *coord.Coordinator
	jn    *coord.Journal
	fakes []*fakeAgent
	names []string
	ids   []string
	// compactions and kills sum over the session's generations.
	compactions, kills int
}

// serve starts a coordinator generation over the journal and connects
// every fake agent to it.
func (s *replaySession) serve() {
	s.t.Helper()
	jn, rec, err := coord.OpenJournal(s.path, s.jopts)
	if err != nil {
		s.t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.t.Fatal(err)
	}
	cfg := s.cfg
	cfg.Journal, cfg.Recovered = jn, rec
	s.c, s.jn = coord.Serve(ln, cfg), jn
	s.fakes = make([]*fakeAgent, len(s.names))
	for i := range s.names {
		s.redial(i)
	}
}

// redial connects fake i afresh and waits until its register (and the
// dispatch it triggers) is handled.
func (s *replaySession) redial(i int) {
	s.t.Helper()
	s.fakes[i] = dialFake(s.t, s.c.Addr().String(), s.names[i], 1+i%2)
	syncFake(s.fakes[i])
}

// countCompactions adds the current generation's compactions.
func (s *replaySession) countCompactions() {
	if st := s.c.Status(); st.Journal != nil {
		s.compactions += int(st.Journal.Compactions)
	}
}

// stop ends the current generation gracefully.
func (s *replaySession) stop() {
	s.countCompactions()
	s.c.Close()  //nolint:errcheck // test teardown
	s.jn.Close() //nolint:errcheck // test teardown
}

// pick chooses an instance for fake f to report on: mostly one f is
// running, otherwise any instance (a stale or duplicate report).
func (s *replaySession) pick(f int) string {
	var mine []string
	for _, id := range s.ids {
		if js, _ := s.c.Job(id); js.State == coord.StateRunning && js.Agent == s.names[f] {
			mine = append(mine, id)
		}
	}
	if len(mine) > 0 && s.rng.Intn(4) > 0 {
		return mine[s.rng.Intn(len(mine))]
	}
	return s.ids[s.rng.Intn(len(s.ids))]
}

// step runs one random operation and returns its name.
func (s *replaySession) step() string {
	s.t.Helper()
	f := s.rng.Intn(len(s.fakes))
	op := s.rng.Intn(10)
	if len(s.ids) == 0 {
		op = 0
	}
	switch op {
	case 0, 1:
		spec := coord.Spec{Name: fmt.Sprintf("s%d", s.rng.Intn(3)), Seed: s.rng.Int63n(100)}
		if s.rng.Intn(2) == 0 {
			spec.Deadline = coord.Duration(time.Millisecond)
		}
		s.ids = append(s.ids, s.c.Submit(spec))
		return "submit"
	case 2:
		s.fakes[f].send.Emit(otrace.Event{Ev: otrace.KindCtrlAccept, Seq: -1, Job: s.pick(f)})
		syncFake(s.fakes[f])
		return "accept"
	case 3, 4:
		report(s.fakes[f], s.pick(f), s.rng.Intn(20), s.rng.Intn(3), "")
		return "complete"
	case 5, 6:
		report(s.fakes[f], s.pick(f), s.rng.Intn(20), s.rng.Intn(3), fmt.Sprintf("error %d", s.rng.Intn(3)))
		return "error"
	case 7:
		s.fakes[f].conn.Close() //nolint:errcheck // the disconnect under test
		waitDisconnected(s.t, s.c, s.names[f])
		s.redial(f)
		return "disconnect"
	case 8:
		time.Sleep(3 * time.Millisecond) // past Deadline + DeadlineSlack
		s.c.SweepNow()
		return "sweep"
	default:
		s.countCompactions()
		s.c.Kill()
		s.kills++
		s.serve()
		return "kill"
	}
}

// waitDisconnected polls until the named agent's disconnect (and the
// re-queues it causes) has been handled.
func waitDisconnected(t *testing.T, c *coord.Coordinator, name string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		for _, a := range c.Status().Agents {
			if a.Agent == name && !a.Connected {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("agent %s never disconnected", name)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestReplayEqualsLive is the table's property test: in seeded random
// sessions of submits, accepts, successes, errors, duplicate and stale
// reports, disconnects, deadline sweeps, and SIGKILL-style restarts,
// with a journal bound small enough to compact mid-session, the
// replayed journal equals the live table after every step.
func TestReplayEqualsLive(t *testing.T) {
	sessions, steps := 200, 24
	if testing.Short() {
		sessions = 40
	}
	var compactions, kills int
	for seed := int64(1); seed <= int64(sessions); seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := &replaySession{
			t: t, rng: rng,
			path: filepath.Join(t.TempDir(), "coord.otr"),
			cfg: coord.Config{
				MaxAttempts:   1 + rng.Intn(3),
				RecoveryGrace: -1,
				DeadlineSlack: time.Millisecond,
				SweepEvery:    time.Hour, // sweeps run only as scripted steps
			},
			jopts: coord.JournalOptions{Sync: coord.SyncNone, MaxBytes: int64(512 + rng.Intn(1536))},
			names: []string{"fa", "fb", "fc"}[:1+rng.Intn(3)],
		}
		s.serve()
		for i := 0; i < steps; i++ {
			op := s.step()
			checkReplay(t, s.c, s.path, s.ids, fmt.Sprintf("seed %d step %d (%s)", seed, i, op))
		}
		s.stop()
		compactions += s.compactions
		kills += s.kills
	}
	if compactions == 0 || kills == 0 {
		t.Fatalf("sessions never compacted (%d) or never restarted (%d)", compactions, kills)
	}
	t.Logf("%d sessions, %d compactions, %d restarts", sessions, compactions, kills)
}

// seedJournal writes a journal the way a coordinator does: retries,
// terminal failures, settlements, a mid-run compaction, and a SIGKILL
// with an instance still running.
func seedJournal(tb testing.TB) []byte {
	path := filepath.Join(tb.TempDir(), "seed.otr")
	jn, rec, err := coord.OpenJournal(path, coord.JournalOptions{MaxBytes: 512})
	if err != nil {
		tb.Fatal(err)
	}
	defer jn.Close() //nolint:errcheck // abandoned by Kill
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	c := coord.Serve(ln, coord.Config{MaxAttempts: 2, Journal: jn, Recovered: rec})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var mu sync.Mutex
	tries := map[string]int{}
	go coord.RunAgent(ctx, c.Addr().String(), coord.AgentConfig{ //nolint:errcheck // canceled at exit
		Name: "a1", Capacity: 2,
		Run: func(jctx context.Context, id string, spec coord.Spec, sink otrace.Sink) (coord.Result, error) {
			mu.Lock()
			tries[id]++
			n := tries[id]
			mu.Unlock()
			switch {
			case spec.Mode == "hang":
				<-jctx.Done()
				return coord.Result{}, jctx.Err()
			case spec.Seed%3 == 0:
				return coord.Result{Probes: 3, Losses: 1}, errors.New("always fails")
			case spec.Seed%3 == 1 && n == 1:
				return coord.Result{Probes: 2}, errors.New("fails once")
			}
			return coord.Result{Probes: int(spec.Seed), Losses: 1}, nil
		},
	})
	for i := 0; i < 6; i++ {
		c.Submit(coord.Spec{Name: "seed", Seed: int64(i)})
	}
	if err := c.WaitIdle(ctx); err != nil {
		tb.Fatal(err)
	}
	id := c.Submit(coord.Spec{Name: "hang", Mode: "hang", Every: coord.Duration(time.Hour)})
	for js, _ := c.Job(id); js.State != coord.StateRunning; js, _ = c.Job(id) {
		if ctx.Err() != nil {
			tb.Fatal("hanging job never dispatched")
		}
		time.Sleep(time.Millisecond)
	}
	c.Kill()
	data, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// FuzzRecover: Recover never panics on arbitrary bytes, and compaction
// is idempotent: the snapshot OpenJournal writes replays to the same
// rows, NextIndex, and MaxSeq as the journal it was taken from.
func FuzzRecover(f *testing.F) {
	data := seedJournal(f)
	f.Add(data)
	f.Add(data[:len(data)-3]) // a torn tail frame
	f.Add(data[:len(data)/2])
	path := filepath.Join(f.TempDir(), "coord.otr") // inputs run one at a time per process
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		rec, err := coord.Recover(path)
		if err != nil {
			return // not a journal at all; only panics are bugs
		}
		jn, _, err := coord.OpenJournal(path, coord.JournalOptions{Sync: coord.SyncNone})
		if err != nil {
			t.Fatalf("recoverable journal does not reopen: %v", err)
		}
		if err := jn.Close(); err != nil {
			t.Fatal(err)
		}
		back, err := coord.Recover(path)
		if err != nil || back.Truncated {
			t.Fatalf("compacted journal does not replay clean: truncated=%v err=%v", back != nil && back.Truncated, err)
		}
		if len(back.Jobs) != len(rec.Jobs) || back.MaxSeq != rec.MaxSeq ||
			!reflect.DeepEqual(back.NextIndex, rec.NextIndex) {
			t.Fatalf("snapshot replays to %d jobs, MaxSeq %d, NextIndex %v; journal %d, %d, %v",
				len(back.Jobs), back.MaxSeq, back.NextIndex, len(rec.Jobs), rec.MaxSeq, rec.NextIndex)
		}
		for i := range rec.Jobs {
			if *back.Jobs[i] != *rec.Jobs[i] {
				t.Fatalf("row %d: snapshot replays to %+v, journal %+v", i, *back.Jobs[i], *rec.Jobs[i])
			}
		}
	})
}
