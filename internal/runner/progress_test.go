package runner

import (
	"context"
	"fmt"
	"testing"
	"time"

	"netprobe/internal/core"
	"netprobe/internal/obs"
)

// TestProgressExactlyOncePerJob: every job produces exactly one
// JobStart and one JobFinish, at any worker count, with the right
// seeds and labels, and the callback is never invoked concurrently.
func TestProgressExactlyOncePerJob(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			const n = 12
			jobs := make([]Job, n)
			for i := range jobs {
				jobs[i] = Job{
					Label:  fmt.Sprintf("job-%d", i),
					Config: tinyConfig(fmt.Sprintf("job-%d", i), nil),
				}
			}
			starts := make([]int, n)
			finishes := make([]int, n)
			inCallback := false // serialized callbacks: no reentry
			results := Run(context.Background(), 7, jobs,
				Workers(workers),
				Progress(func(ev Event) {
					if inCallback {
						t.Error("progress callback invoked concurrently")
					}
					inCallback = true
					defer func() { inCallback = false }()
					if ev.Index < 0 || ev.Index >= n {
						t.Fatalf("event index %d out of range", ev.Index)
					}
					if want := DeriveSeed(7, ev.Index); ev.Seed != want {
						t.Errorf("event seed %d, want %d", ev.Seed, want)
					}
					if want := fmt.Sprintf("job-%d", ev.Index); ev.Label != want {
						t.Errorf("event label %q, want %q", ev.Label, want)
					}
					if ev.Worker < 0 || ev.Worker >= workers {
						t.Errorf("event worker %d with %d workers", ev.Worker, workers)
					}
					switch ev.Kind {
					case JobStart:
						starts[ev.Index]++
					case JobFinish:
						finishes[ev.Index]++
						if ev.Wall <= 0 {
							t.Errorf("finish event for job %d has wall %v", ev.Index, ev.Wall)
						}
					default:
						t.Errorf("unknown event kind %q", ev.Kind)
					}
				}))
			if err := FirstErr(results); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				if starts[i] != 1 || finishes[i] != 1 {
					t.Errorf("job %d: %d starts, %d finishes; want 1 and 1",
						i, starts[i], finishes[i])
				}
			}
		})
	}
}

// TestSummaryCountsAndUtilization: a normal run reports every job
// completed, per-worker busy time, and a sane utilization.
func TestSummaryCountsAndUtilization(t *testing.T) {
	const n = 8
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{
			Label:  "ok",
			Config: tinyConfig("ok", func() { time.Sleep(5 * time.Millisecond) }),
		}
	}
	results, sum := RunAll(context.Background(), 1, jobs, Workers(4))
	if err := FirstErr(results); err != nil {
		t.Fatal(err)
	}
	if sum.Jobs != n || sum.Completed != n || sum.Failed != 0 || sum.Cancelled != 0 {
		t.Errorf("summary counts = %+v", sum)
	}
	if sum.Workers != 4 || len(sum.WorkerBusy) != 4 {
		t.Errorf("workers = %d, busy = %v", sum.Workers, sum.WorkerBusy)
	}
	var busy time.Duration
	for _, b := range sum.WorkerBusy {
		busy += b
	}
	if busy <= 0 || sum.Wall <= 0 {
		t.Errorf("busy %v, wall %v", busy, sum.Wall)
	}
	if u := sum.Utilization(); u <= 0 || u > 1 {
		t.Errorf("utilization %v out of (0, 1]", u)
	}
}

// TestSummaryCancelledDistinguished: cancelling mid-sweep yields a
// summary whose cancelled count covers the undispatched jobs, so a
// partial sweep is visibly partial.
func TestSummaryCancelledDistinguished(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const n = 10
	jobs := make([]Job, n)
	for i := range jobs {
		var fn func()
		if i == 1 {
			fn = cancel
		}
		jobs[i] = Job{Label: "maybe", Config: tinyConfig("maybe", fn)}
	}
	results, sum := RunAll(ctx, 1, jobs, Workers(1))
	_ = results
	if sum.Cancelled == 0 {
		t.Fatalf("no cancelled jobs in summary after mid-sweep cancel: %+v", sum)
	}
	if sum.Completed+sum.Failed+sum.Cancelled != n {
		t.Errorf("outcome partition does not cover all jobs: %+v", sum)
	}
	if sum.Completed == 0 {
		t.Errorf("expected at least one completed job before cancel: %+v", sum)
	}
}

// TestMetricsOptionRecordsJobOutcomes: the Metrics option feeds the
// runner counters and the per-job wall-time timer, and plumbs the
// registry into SimConfig for real simulations.
func TestMetricsOptionRecordsJobOutcomes(t *testing.T) {
	reg := obs.NewRegistry()
	jobs := []Job{
		{Label: "ok", Config: tinyConfig("ok", nil)},
		{Label: "bad", Config: badConfig()},
		{Label: "sim", Config: core.INRIAPreset().Config(50*time.Millisecond, 2*time.Second, 0)},
	}
	results := Run(context.Background(), 3, jobs, Workers(2), Metrics(reg))
	if results[2].Err != nil {
		t.Fatal(results[2].Err)
	}
	s := reg.Snapshot()
	if got := s.Counters["runner.jobs.completed"]; got != 2 {
		t.Errorf("completed counter = %d, want 2", got)
	}
	if got := s.Counters["runner.jobs.failed"]; got != 1 {
		t.Errorf("failed counter = %d, want 1", got)
	}
	if h := s.Histograms["runner.job.wall"]; h.Count != 3 {
		t.Errorf("wall timer count = %d, want 3", h.Count)
	}
	// The real simulation job inherited the registry.
	if got := s.Counters["sim.events"]; got <= 0 {
		t.Errorf("sim.events = %d, want > 0 (registry not plumbed into SimConfig)", got)
	}
	if got := s.Gauges["sim.heap.high_water"]; got <= 0 {
		t.Errorf("sim.heap.high_water = %d, want > 0", got)
	}
}
