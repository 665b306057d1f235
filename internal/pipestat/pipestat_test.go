package pipestat_test

import (
	"testing"
	"time"

	"netprobe/internal/obs"
	"netprobe/internal/otrace"
	"netprobe/internal/pipestat"
)

// collector is a race-free terminal sink that remembers what reached it.
type collector struct {
	evs []otrace.Event
}

func (c *collector) Emit(ev otrace.Event) { c.evs = append(c.evs, ev) }

func TestStamp(t *testing.T) {
	ev := pipestat.Stamp(otrace.Event{Ev: otrace.KindRTT, Seq: 3})
	if ev.Stamp == 0 {
		t.Fatal("Stamp left a zero stamp")
	}
	// A stamp set by an earlier stage must survive later Stamp calls:
	// lag is always measured from pipeline entry.
	again := pipestat.Stamp(ev)
	if again.Stamp != ev.Stamp {
		t.Fatalf("Stamp overwrote an existing stamp: %d -> %d", ev.Stamp, again.Stamp)
	}
}

func TestLagSeconds(t *testing.T) {
	if lag := pipestat.LagSeconds(otrace.Event{}); lag != 0 {
		t.Fatalf("unstamped event has lag %v, want 0", lag)
	}
	past := otrace.Event{Stamp: pipestat.Now() - int64(50*time.Millisecond)}
	lag := pipestat.LagSeconds(past)
	if lag < 0.050 || lag > 5 {
		t.Fatalf("lag %v, want >= 50ms and sane", lag)
	}
	// A stamp from the future (cross-host clock skew) clamps to zero
	// rather than poisoning the histogram with negative seconds.
	future := otrace.Event{Stamp: pipestat.Now() + int64(time.Hour)}
	if lag := pipestat.LagSeconds(future); lag != 0 {
		t.Fatalf("future stamp has lag %v, want 0", lag)
	}
}

func TestChainBooks(t *testing.T) {
	l := pipestat.NewLedger(obs.NewRegistry())
	c := l.Chain("test")
	var produced, applied, dropped int64
	c.Produced("head", func() int64 { return produced })
	c.Applied("writer", func() int64 { return applied })
	c.Dropped("queue", func() int64 { return dropped })

	produced, applied, dropped = 100, 90, 10
	if u := c.Unaccounted(); u != 0 {
		t.Fatalf("balanced book unaccounted = %d, want 0", u)
	}
	applied = 80 // 10 events in flight
	if u := c.Unaccounted(); u != 10 {
		t.Fatalf("unaccounted = %d, want 10", u)
	}
	// Scrape-time skew (drops read after produced advanced) floors at 0.
	applied, dropped = 95, 10
	if u := c.Unaccounted(); u != 0 {
		t.Fatalf("negative residual floored: got %d, want 0", u)
	}
	s := c.Snapshot()
	if s.Unaccounted != -5 {
		t.Fatalf("Snapshot reports raw residual: got %d, want -5", s.Unaccounted)
	}
	if s.Produced != 100 || s.Applied["writer"] != 95 || s.Dropped["queue"] != 10 {
		t.Fatalf("snapshot books wrong: %+v", s)
	}
}

func TestAccountReplacement(t *testing.T) {
	l := pipestat.NewLedger(obs.NewRegistry())
	c := l.Chain("test")
	c.Applied("writer", func() int64 { return 1 })
	// Re-wiring the same account name across runs replaces the closure
	// instead of double-counting.
	c.Applied("writer", func() int64 { return 7 })
	if s := c.Snapshot(); s.Applied["writer"] != 7 {
		t.Fatalf("replaced account reports %d, want 7", s.Applied["writer"])
	}
	_, appliedNames, _ := c.Stages()
	if len(appliedNames) != 1 {
		t.Fatalf("re-registration duplicated the account: %v", appliedNames)
	}
}

func TestLedgerSumsChains(t *testing.T) {
	l := pipestat.NewLedger(obs.NewRegistry())
	a := l.Chain("a")
	a.Produced("head", func() int64 { return 10 })
	b := l.Chain("b")
	b.Produced("head", func() int64 { return 5 })
	b.Applied("term", func() int64 { return 8 }) // negative residual, floored per chain
	if u := l.Unaccounted(); u != 10 {
		t.Fatalf("ledger unaccounted = %d, want 10 (per-chain floor)", u)
	}
	if same := l.Chain("a"); same != a {
		t.Fatal("Chain is not create-or-get")
	}
	snap := l.Snapshot()
	if len(snap.Chains) != 2 || snap.Chains[0].Name != "a" || snap.Chains[1].Name != "b" {
		t.Fatalf("snapshot chains wrong: %+v", snap.Chains)
	}
}

func TestProduceStampsAndCounts(t *testing.T) {
	reg := obs.NewRegistry()
	l := pipestat.NewLedger(reg)
	c := l.Chain("online")
	var got collector
	head := c.Produce(&got)
	for i := 0; i < 5; i++ {
		head.Emit(otrace.Event{Ev: otrace.KindRTT, Seq: i})
	}
	if len(got.evs) != 5 {
		t.Fatalf("forwarded %d events, want 5", len(got.evs))
	}
	for _, ev := range got.evs {
		if ev.Stamp == 0 {
			t.Fatal("Produce forwarded an unstamped event")
		}
	}
	if s := c.Snapshot(); s.Produced != 5 {
		t.Fatalf("produced account = %d, want 5", s.Produced)
	}
	ctr := reg.Counter(obs.Label("pipeline.events", "chain", "online", "stage", pipestat.StageProduced))
	if ctr.Value() != 5 {
		t.Fatalf("pipeline.events counter = %d, want 5", ctr.Value())
	}
}

func TestStageCountsAndObservesLag(t *testing.T) {
	reg := obs.NewRegistry()
	l := pipestat.NewLedger(reg)
	c := l.Chain("wire")
	var got collector
	sink := c.Stage(pipestat.StageWireSent, &got)
	sink.Emit(otrace.Event{Ev: otrace.KindRTT, Stamp: pipestat.Now()})
	sink.Emit(otrace.Event{Ev: otrace.KindRTT}) // unstamped: counted, no lag sample
	if len(got.evs) != 2 {
		t.Fatalf("forwarded %d events, want 2", len(got.evs))
	}
	ctr := reg.Counter(obs.Label("pipeline.events", "chain", "wire", "stage", pipestat.StageWireSent))
	if ctr.Value() != 2 {
		t.Fatalf("stage counter = %d, want 2", ctr.Value())
	}
	lag := reg.Histogram(obs.Label("pipeline.lag", "chain", "wire", "stage", pipestat.StageWireSent), nil)
	if lag.Count() != 1 {
		t.Fatalf("lag histogram has %d samples, want 1 (unstamped events skipped)", lag.Count())
	}
	// Stage taps trace without accounting: the chain's books are
	// untouched by traffic through a Stage.
	if s := c.Snapshot(); s.Produced != 0 {
		t.Fatalf("Stage leaked into the produced account: %+v", s)
	}
}

func TestMonitor(t *testing.T) {
	l := pipestat.NewLedger(obs.NewRegistry())
	c := l.Chain("online")
	m := pipestat.NewMonitor(c)

	if _, ok := m.LastEventAge(); ok {
		t.Fatal("LastEventAge reported before any event")
	}
	m.HandleEvent(otrace.Event{Ev: otrace.KindRTT, Job: "a", Stamp: pipestat.Now()})
	m.HandleEvent(otrace.Event{Ev: otrace.KindRTT, Job: "b"})
	m.HandleEvent(otrace.Event{Ev: otrace.KindRTT}) // untagged -> "default"
	m.HandleEvent(otrace.Event{Ev: otrace.KindJobFinish, Job: "a"})

	if got := m.Applied(); got != 4 {
		t.Fatalf("Applied = %d, want 4", got)
	}
	// NewMonitor self-registers as the chain's applied terminal.
	if s := c.Snapshot(); s.Applied["analyzers"] != 4 {
		t.Fatalf("chain applied account = %v, want analyzers=4", s.Applied)
	}
	jobs := m.Jobs()
	if len(jobs) != 3 {
		t.Fatalf("jobs = %+v, want 3 rows", jobs)
	}
	// First-seen order: a, b, default.
	if jobs[0].Job != "a" || !jobs[0].Finalized || jobs[0].Events != 2 {
		t.Fatalf("job a row wrong: %+v", jobs[0])
	}
	if jobs[1].Job != "b" || jobs[1].Finalized {
		t.Fatalf("job b row wrong: %+v", jobs[1])
	}
	if m.Active() != 2 {
		t.Fatalf("Active = %d, want 2 (b and default)", m.Active())
	}
	if age, ok := m.LastEventAge(); !ok || age < 0 || age > time.Minute {
		t.Fatalf("LastEventAge = %v, %v", age, ok)
	}
	snap, ok := m.Snapshot().(pipestat.MonitorSnapshot)
	if !ok {
		t.Fatalf("Snapshot type %T", m.Snapshot())
	}
	if snap.Chain != "online" || snap.Applied != 4 || snap.ActiveJobs != 2 || len(snap.Jobs) != 3 {
		t.Fatalf("snapshot wrong: %+v", snap)
	}
	// Snapshot sorts by job name for stable /statusz output.
	if snap.Jobs[0].Job != "a" || snap.Jobs[1].Job != "b" || snap.Jobs[2].Job != "default" {
		t.Fatalf("snapshot job order wrong: %+v", snap.Jobs)
	}
}

// TestMonitorLagAndAllocs: the Monitor observes stamped events into
// pipeline.lag{chain=,stage=applied} — unstamped ones count but add no
// sample — and handling an event of a job it has seen allocates nothing.
func TestMonitorLagAndAllocs(t *testing.T) {
	reg := obs.NewRegistry()
	m := pipestat.NewMonitor(pipestat.NewLedger(reg).Chain("online"))
	stamped := otrace.Event{Ev: otrace.KindRTT, Job: "a", Stamp: pipestat.Now()}
	m.HandleEvent(stamped)
	m.HandleEvent(otrace.Event{Ev: otrace.KindRTT, Job: "a"})
	lag := reg.Histogram(obs.Label("pipeline.lag", "chain", "online", "stage", pipestat.StageApplied), nil)
	if lag.Count() != 1 {
		t.Fatalf("lag histogram has %d samples, want 1 (unstamped events skipped)", lag.Count())
	}
	if a := testing.AllocsPerRun(1000, func() { m.HandleEvent(stamped) }); a != 0 {
		t.Fatalf("HandleEvent: %v allocs, want 0", a)
	}
	if lag.Count() != 1002 || m.Applied() != 1003 {
		t.Fatalf("after the alloc runs: %d lag samples, %d applied", lag.Count(), m.Applied())
	}
}
