package runner

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"netprobe/internal/core"
	"netprobe/internal/otrace"
)

// onFirstEvent is a Config.Trace sink that runs fn on a job's first
// event and ignores the rest: it stands in for a job that sleeps,
// panics or cancels the sweep partway through its run.
type onFirstEvent struct {
	once sync.Once
	fn   func()
}

func (s *onFirstEvent) Emit(otrace.Event) { s.once.Do(s.fn) }

// tinyConfig is a small valid simulation (20 probes) on a path named
// name, so its trace is named "<name> δ=50ms". A non-nil fn runs on
// the job's first event.
func tinyConfig(name string, fn func()) core.SimConfig {
	cfg := core.INRIAPreset().Config(50*time.Millisecond, time.Second, 0)
	cfg.Path.Name = name
	if fn != nil {
		cfg.Trace = &onFirstEvent{fn: fn}
	}
	return cfg
}

// badConfig is a simulation RunSim rejects: its route change names a
// hop the path does not have.
func badConfig() core.SimConfig {
	cfg := tinyConfig("bad", nil)
	cfg.RouteChange = &core.RouteChange{Hop: 99}
	return cfg
}

func TestDeriveSeedStableAndDistinct(t *testing.T) {
	seen := map[int64]int{}
	for i := 0; i < 1000; i++ {
		s := DeriveSeed(42, i)
		if s2 := DeriveSeed(42, i); s2 != s {
			t.Fatalf("DeriveSeed(42, %d) unstable: %d vs %d", i, s, s2)
		}
		if prev, dup := seen[s]; dup {
			t.Fatalf("seed collision between jobs %d and %d", prev, i)
		}
		seen[s] = i
	}
	if DeriveSeed(1, 0) == DeriveSeed(2, 0) {
		t.Error("different roots give the same job-0 seed")
	}
}

// TestSubmissionOrderPreserved: jobs that complete in reverse order
// must still be reported in submission order.
func TestSubmissionOrderPreserved(t *testing.T) {
	const n = 6
	jobs := make([]Job, n)
	for i := range jobs {
		i := i
		cfg := tinyConfig(string(rune('a'+i)), func() {
			// Later submissions finish first.
			time.Sleep(time.Duration(n-i) * 10 * time.Millisecond)
		})
		jobs[i] = Job{Label: fmt.Sprintf("%s δ=%v", cfg.Path.Name, cfg.Delta), Config: cfg}
	}
	results := Run(context.Background(), 1, jobs, Workers(n))
	if len(results) != n {
		t.Fatalf("got %d results, want %d", len(results), n)
	}
	for i, r := range results {
		if r.Index != i {
			t.Errorf("result %d has index %d", i, r.Index)
		}
		if r.Err != nil {
			t.Errorf("result %d: %v", i, r.Err)
		}
		if r.Trace == nil || r.Trace.Name != jobs[i].Label {
			t.Errorf("result %d holds trace %v, want %q", i, r.Trace, jobs[i].Label)
		}
	}
}

// TestPanicRecovered: a panicking job lands in its own Result.Err; the
// rest of the pool completes normally.
func TestPanicRecovered(t *testing.T) {
	jobs := []Job{
		{Label: "boom", Config: tinyConfig("boom", func() { panic("kaboom") })},
		{Label: "fine-1", Config: tinyConfig("ok", nil)},
		{Label: "fine-2", Config: tinyConfig("ok", nil)},
	}
	results := Run(context.Background(), 1, jobs, Workers(2))
	if results[0].Err == nil || !strings.Contains(results[0].Err.Error(), "panicked") {
		t.Fatalf("panic not recovered into Err: %v", results[0].Err)
	}
	if results[0].Trace != nil {
		t.Error("panicked job still reports a trace")
	}
	for _, r := range results[1:] {
		if r.Err != nil || r.Trace == nil {
			t.Errorf("sibling job %q damaged by panic: %+v", r.Label, r)
		}
	}
}

// TestJobErrorIsolated: a failing simulation config is reported on its
// own result only.
func TestJobErrorIsolated(t *testing.T) {
	p := core.INRIAPreset()
	bad := p.Config(0, time.Second, 0) // zero delta: RunSim rejects it
	good := p.Config(50*time.Millisecond, 2*time.Second, 0)
	results := Run(context.Background(), 9, []Job{
		{Label: "bad", Config: bad},
		{Label: "good", Config: good},
	})
	if results[0].Err == nil {
		t.Error("invalid config produced no error")
	}
	if results[1].Err != nil || results[1].Trace == nil {
		t.Errorf("valid job failed: %+v", results[1].Err)
	}
	if results[1].Stats.N != results[1].Trace.Len() {
		t.Errorf("stats not attached: %+v", results[1].Stats)
	}
}

// TestCancellationMidSweep: cancelling during the sweep returns
// promptly with completed results kept and pending jobs marked with
// the context error.
func TestCancellationMidSweep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	jobs := []Job{
		// Cancel while the sweep is underway.
		{Label: "first", Config: tinyConfig("first", cancel)},
	}
	for i := 0; i < 5; i++ {
		jobs = append(jobs, Job{Label: "pending", Config: tinyConfig("pending", nil)})
	}
	done := make(chan []Result, 1)
	go func() { done <- Run(ctx, 7, jobs, Workers(1)) }()
	var results []Result
	select {
	case results = <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return promptly after cancellation")
	}
	if results[0].Err != nil || results[0].Trace == nil {
		t.Fatalf("completed job lost: %+v", results[0])
	}
	for _, r := range results[1:] {
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("pending job %d: err %v, want context.Canceled", r.Index, r.Err)
		}
		if r.Trace != nil {
			t.Errorf("pending job %d carries a trace", r.Index)
		}
	}
}

// TestCancelledBeforeRun: an already-cancelled context runs nothing.
func TestCancelledBeforeRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results := Run(ctx, 1, DeltaSweep(core.INRIAPreset(), core.PaperDeltas, time.Second))
	for _, r := range results {
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("job %d: err %v", r.Index, r.Err)
		}
	}
}

func TestEmptyJobList(t *testing.T) {
	if got := Run(context.Background(), 1, nil); len(got) != 0 {
		t.Fatalf("got %d results for empty job list", len(got))
	}
}

func TestDeltaSweepShape(t *testing.T) {
	jobs := DeltaSweep(core.PittPreset(), core.PaperDeltas, time.Minute)
	if len(jobs) != len(core.PaperDeltas) {
		t.Fatalf("got %d jobs", len(jobs))
	}
	for i, j := range jobs {
		if j.Config.Delta != core.PaperDeltas[i] {
			t.Errorf("job %d delta %v", i, j.Config.Delta)
		}
		if j.Config.Duration != time.Minute {
			t.Errorf("job %d duration %v", i, j.Config.Duration)
		}
		if !strings.Contains(j.Label, "pitt") {
			t.Errorf("job %d label %q", i, j.Label)
		}
	}
}

func TestFirstErr(t *testing.T) {
	errBoom := errors.New("boom")
	if err := FirstErr([]Result{{}, {Err: errBoom}, {Err: errors.New("later")}}); !errors.Is(err, errBoom) {
		t.Fatalf("got %v", err)
	}
	if err := FirstErr([]Result{{}, {}}); err != nil {
		t.Fatalf("got %v", err)
	}
}
