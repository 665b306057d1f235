package runner

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"netprobe/internal/core"
	"netprobe/internal/obs"
	"netprobe/internal/otrace"
)

// flakyOnce returns a run function that fails its first invocation the
// given way (after dirtying the trace sink) and runs the real
// simulation on every later one.
func flakyOnce(calls *atomic.Int64, fail func(ctx context.Context, cfg core.SimConfig) error) func(context.Context, core.SimConfig) (*core.Trace, error) {
	return func(ctx context.Context, cfg core.SimConfig) (*core.Trace, error) {
		if calls.Add(1) == 1 {
			if cfg.Trace != nil {
				// Half-written garbage the retry must not leave behind.
				for i := 0; i < 50; i++ {
					cfg.Trace.Emit(otrace.Event{Ev: otrace.KindProbeSent, Seq: i})
				}
			}
			if err := fail(ctx, cfg); err != nil {
				return nil, err
			}
		}
		return core.RunSim(cfg)
	}
}

// TestRetryAfterPanicByteIdenticalTrace is the ISSUE's runner
// acceptance test: a job that panics on attempt 1 succeeds on attempt
// 2, its trace file is byte-identical to an undisturbed run's, the
// result and manifest record attempts = 2, and the retry counter
// ticks.
func TestRetryAfterPanicByteIdenticalTrace(t *testing.T) {
	cfg := core.INRIAPreset().Config(50*time.Millisecond, 2*time.Second, 0)

	refDir := t.TempDir()
	ref := Run(context.Background(), 42, []Job{{Label: "ref", Config: cfg}}, Traces(refDir))
	if err := FirstErr(ref); err != nil {
		t.Fatal(err)
	}

	var calls atomic.Int64
	reg := obs.NewRegistry()
	dir := t.TempDir()
	jobs := []Job{{
		Label: "ref", // same label so the traces can match byte for byte
		Source: &funcSource{cfg: cfg, run: flakyOnce(&calls, func(context.Context, core.SimConfig) error {
			panic("attempt 1 dies")
		})},
		Retries: 2,
	}}
	results := Run(context.Background(), 42, jobs, Traces(dir), Metrics(reg))
	r := results[0]
	if r.Err != nil {
		t.Fatalf("retried job failed: %v", r.Err)
	}
	if r.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2", r.Attempts)
	}
	if got := reg.Counter("runner.job.retries").Value(); got != 1 {
		t.Errorf("runner.job.retries = %d, want 1", got)
	}

	want, err := os.ReadFile(ref[0].TraceFile)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(r.TraceFile)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("retried trace differs from clean run (%d vs %d bytes)", len(got), len(want))
	}

	m := NewManifest("test", 42, results, Summary{Jobs: 1, Completed: 1, Workers: 1})
	if m.Jobs[0].Attempts != 2 {
		t.Fatalf("manifest attempts = %d, want 2", m.Jobs[0].Attempts)
	}
	mpath := filepath.Join(dir, "manifest.json")
	if err := m.Write(mpath); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(mpath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"attempts": 2`) {
		t.Fatal("manifest JSON does not record attempts: 2")
	}
}

// TestRetryAfterTimeout: an attempt that outruns Job.Timeout fails
// with ErrJobTimeout (a retryable failure, not a cancellation) and the
// retry succeeds.
func TestRetryAfterTimeout(t *testing.T) {
	var calls atomic.Int64
	jobs := []Job{{
		Label: "slow-then-fast",
		Source: &funcSource{cfg: core.INRIAPreset().Config(50*time.Millisecond, time.Second, 0),
			run: flakyOnce(&calls, func(ctx context.Context, _ core.SimConfig) error {
				<-ctx.Done() // hang until the watchdog fires
				return ctx.Err()
			})},
		Timeout: 50 * time.Millisecond,
		Retries: 1,
	}}
	results, sum := RunAll(context.Background(), 7, jobs)
	r := results[0]
	if r.Err != nil {
		t.Fatalf("retried job failed: %v", r.Err)
	}
	if r.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2", r.Attempts)
	}
	if sum.Completed != 1 || sum.Cancelled != 0 || sum.Failed != 0 {
		t.Fatalf("summary %+v, want 1 completed", sum)
	}
}

// TestTimeoutWithoutRetriesIsFailure: with no retry budget the timeout
// surfaces as ErrJobTimeout and counts as a failure, never as a
// cancellation (the watchdog cancels the attempt context, and the
// executor's Canceled error must not leak through).
func TestTimeoutWithoutRetriesIsFailure(t *testing.T) {
	jobs := []Job{{
		Label: "hang",
		Source: fakeSource(func(ctx context.Context, _ core.SimConfig) (*core.Trace, error) {
			<-ctx.Done()
			return nil, ctx.Err()
		}),
		Timeout: 30 * time.Millisecond,
	}}
	results, sum := RunAll(context.Background(), 7, jobs)
	r := results[0]
	if !errors.Is(r.Err, ErrJobTimeout) {
		t.Fatalf("err = %v, want ErrJobTimeout", r.Err)
	}
	if errors.Is(r.Err, context.Canceled) || errors.Is(r.Err, context.DeadlineExceeded) {
		t.Fatalf("timeout error %v masquerades as a context error", r.Err)
	}
	if r.Attempts != 1 {
		t.Fatalf("attempts = %d, want 1", r.Attempts)
	}
	if sum.Failed != 1 || sum.Cancelled != 0 {
		t.Fatalf("summary %+v, want 1 failed", sum)
	}
}

// TestTimeoutFailsUninterruptibleSim: a simulation checks its context
// only before it starts, so it runs to completion past Job.Timeout,
// yet the attempt still fails with ErrJobTimeout; with a retry budget
// the retry times out too and the job counts as one failure.
func TestTimeoutFailsUninterruptibleSim(t *testing.T) {
	cfg := core.INRIAPreset().Config(20*time.Millisecond, 10*time.Minute, 0)
	for _, retries := range []int{0, 1} {
		results, sum := RunAll(context.Background(), 7, []Job{{
			Label:   "long-sim",
			Config:  cfg,
			Timeout: time.Millisecond,
			Retries: retries,
		}})
		r := results[0]
		if !errors.Is(r.Err, ErrJobTimeout) {
			t.Fatalf("retries=%d: err = %v, want ErrJobTimeout", retries, r.Err)
		}
		if r.Attempts != retries+1 {
			t.Fatalf("retries=%d: attempts = %d, want %d", retries, r.Attempts, retries+1)
		}
		if sum.Failed != 1 || sum.Completed != 0 || sum.Cancelled != 0 {
			t.Fatalf("retries=%d: summary %+v, want 1 failed", retries, sum)
		}
	}
}

// TestRetryNotAttemptedOnCancellation: a sweep cancellation mid-job is
// terminal — the retry ladder must not redispatch the job.
func TestRetryNotAttemptedOnCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var calls atomic.Int64
	jobs := []Job{{
		Label: "cancelled",
		Source: fakeSource(func(ctx context.Context, _ core.SimConfig) (*core.Trace, error) {
			calls.Add(1)
			cancel() // the sweep is cancelled while the job runs
			<-ctx.Done()
			return nil, ctx.Err()
		}),
		Retries: 5,
	}}
	results, sum := RunAll(ctx, 7, jobs)
	if got := calls.Load(); got != 1 {
		t.Fatalf("run attempts = %d, want 1 (no retry after cancellation)", got)
	}
	if sum.Cancelled != 1 {
		t.Fatalf("summary %+v, want 1 cancelled", sum)
	}
	if results[0].Err == nil {
		t.Fatal("cancelled job reported success")
	}
}

// TestManifestWriteAtomic: Write must replace an existing manifest via
// rename — the old document stays intact if anything fails, and no
// temp files survive a successful write.
func TestManifestWriteAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "manifest.json")
	if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	m := NewManifest("test", 1, nil, Summary{})
	if err := m.Write(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) == "old" || !strings.HasPrefix(string(data), "{") {
		t.Fatalf("manifest not replaced: %q", data[:min(len(data), 40)])
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		names := make([]string, 0, len(entries))
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("temp files left behind: %v", names)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Mode().Perm() != 0o644 {
		t.Fatalf("manifest mode %v, want 0644", info.Mode().Perm())
	}
	// Writing into a missing directory fails cleanly.
	if err := m.Write(filepath.Join(dir, "nope", "manifest.json")); err == nil {
		t.Fatal("write into missing directory succeeded")
	}
}
