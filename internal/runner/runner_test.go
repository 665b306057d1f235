package runner

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"netprobe/internal/core"
	"netprobe/internal/otrace"
)

// funcSource is a test Source standing in for a custom executor: Run
// hands run the job's config with the derived seed set and the
// composed sink as Config.Trace, and Trace reports what run returned.
type funcSource struct {
	cfg core.SimConfig
	run func(ctx context.Context, cfg core.SimConfig) (*core.Trace, error)
	tr  *core.Trace
}

func fakeSource(run func(context.Context, core.SimConfig) (*core.Trace, error)) *funcSource {
	return &funcSource{run: run}
}

func (s *funcSource) Name() string       { return "func" }
func (s *funcSource) SetSeed(seed int64) { s.cfg.Seed = seed }
func (s *funcSource) Trace() *core.Trace { return s.tr }

func (s *funcSource) Run(ctx context.Context, sink otrace.Sink) error {
	cfg := s.cfg
	cfg.Trace = sink
	tr, err := s.run(ctx, cfg)
	s.tr = tr
	return err
}

// tinyTrace builds a minimal valid trace for fake-Source tests.
func tinyTrace(name string) *core.Trace {
	return &core.Trace{
		Name:     name,
		Delta:    time.Millisecond,
		WireSize: 72,
		Samples: []core.Sample{
			{Seq: 0, Sent: 0, Recv: time.Millisecond, RTT: time.Millisecond},
		},
	}
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
		jobs[i] = Job{
			Label: string(rune('a' + i)),
			Source: fakeSource(func(context.Context, core.SimConfig) (*core.Trace, error) {
				// Later submissions finish first.
				time.Sleep(time.Duration(n-i) * 10 * time.Millisecond)
				return tinyTrace(string(rune('a' + i))), nil
			}),
		}
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
	ok := func(context.Context, core.SimConfig) (*core.Trace, error) {
		return tinyTrace("ok"), nil
	}
	jobs := []Job{
		{Label: "boom", Source: fakeSource(func(context.Context, core.SimConfig) (*core.Trace, error) {
			panic("kaboom")
		})},
		{Label: "fine-1", Source: fakeSource(ok)},
		{Label: "fine-2", Source: fakeSource(ok)},
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
		{Label: "first", Source: fakeSource(func(context.Context, core.SimConfig) (*core.Trace, error) {
			cancel() // cancel while the sweep is underway
			return tinyTrace("first"), nil
		})},
	}
	for i := 0; i < 5; i++ {
		jobs = append(jobs, Job{
			Label: "pending",
			Source: fakeSource(func(ctx context.Context, _ core.SimConfig) (*core.Trace, error) {
				// If dispatched despite cancellation, honor ctx.
				<-ctx.Done()
				return nil, ctx.Err()
			}),
		})
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
