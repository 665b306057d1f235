package runner

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"netprobe/internal/core"
	"netprobe/internal/obs"
	"netprobe/internal/otrace"
	"netprobe/internal/pipestat"
	"netprobe/internal/trace"
)

// tracedSweep runs a small 2-job δ-sweep with per-job trace files in a
// fresh directory and returns the results plus the directory.
func tracedSweep(t *testing.T, rootSeed int64, workers int) ([]Result, string) {
	t.Helper()
	dir := t.TempDir()
	jobs := DeltaSweep(core.INRIAPreset(),
		[]time.Duration{20 * time.Millisecond, 50 * time.Millisecond},
		5*time.Second)
	results := Run(context.Background(), rootSeed, jobs,
		Workers(workers), Traces(dir))
	if err := FirstErr(results); err != nil {
		t.Fatal(err)
	}
	return results, dir
}

// TestTraceFilesWritten: the Traces option produces one JSONL file per
// job, referenced from the Result and bracketed by job_start and
// job_finish events with the job's totals.
func TestTraceFilesWritten(t *testing.T) {
	results, dir := tracedSweep(t, 42, 2)
	for i, r := range results {
		want := filepath.Join(dir, TraceFileName(i))
		if r.TraceFile != want {
			t.Fatalf("job %d TraceFile %q, want %q", i, r.TraceFile, want)
		}
		var evs []otrace.Event
		f, err := os.Open(r.TraceFile)
		if err != nil {
			t.Fatal(err)
		}
		err = otrace.Read(f, func(ev otrace.Event) error {
			evs = append(evs, ev)
			return nil
		})
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(evs) < 2 {
			t.Fatalf("job %d: only %d events", i, len(evs))
		}
		first, last := evs[0], evs[len(evs)-1]
		if first.Ev != otrace.KindJobStart || first.Index != i || first.Seed != r.Seed {
			t.Errorf("job %d first event %+v, want job_start", i, first)
		}
		if last.Ev != otrace.KindJobFinish || last.Probes != r.Stats.N || last.Losses != r.Stats.Lost {
			t.Errorf("job %d last event %+v, want job_finish with totals %d/%d",
				i, last, r.Stats.N, r.Stats.Lost)
		}
		// The lifecycle stream replays into the exact trace the job
		// produced (job bracket events are ignored by FromEvents' seq
		// filter since Seq is -1 and there is a run_start in between).
		rec, err := trace.LoadEvents(r.TraceFile)
		if err != nil {
			t.Fatal(err)
		}
		if len(rec.Samples) != len(r.Trace.Samples) {
			t.Fatalf("job %d: reconstructed %d samples, want %d",
				i, len(rec.Samples), len(r.Trace.Samples))
		}
		for s := range rec.Samples {
			if rec.Samples[s] != r.Trace.Samples[s] {
				t.Fatalf("job %d sample %d: reconstructed %+v, direct %+v",
					i, s, rec.Samples[s], r.Trace.Samples[s])
			}
		}
	}
}

// TestTraceFilesDeterministicAcrossWorkerCounts is the acceptance
// criterion: per-job trace files are byte-identical whether the sweep
// runs on 1 worker or 4.
func TestTraceFilesDeterministicAcrossWorkerCounts(t *testing.T) {
	seq, seqDir := tracedSweep(t, 42, 1)
	par, parDir := tracedSweep(t, 42, 4)
	if len(seq) != len(par) {
		t.Fatalf("result counts differ: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		a, err := os.ReadFile(filepath.Join(seqDir, TraceFileName(i)))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(parDir, TraceFileName(i)))
		if err != nil {
			t.Fatal(err)
		}
		if len(a) == 0 {
			t.Fatalf("job %d: empty trace file", i)
		}
		if string(a) != string(b) {
			t.Errorf("job %d: trace files differ between workers=1 and workers=4", i)
		}
	}
}

// TestManifestReferencesTraceFiles: the run manifest records each
// job's trace file path.
func TestManifestReferencesTraceFiles(t *testing.T) {
	results, dir := tracedSweep(t, 7, 2)
	m := NewManifest("test", 7, results, Summary{Jobs: len(results)})
	for i, j := range m.Jobs {
		want := filepath.Join(dir, TraceFileName(i))
		if j.TraceFile != want {
			t.Errorf("manifest job %d trace_file %q, want %q", i, j.TraceFile, want)
		}
	}
}

// TestCustomSinkKept: a job with its own Config.Trace keeps it; the
// job's file holds only the job_start/job_finish bracket.
func TestCustomSinkKept(t *testing.T) {
	dir := t.TempDir()
	var custom countSink
	p := core.INRIAPreset()
	cfg := p.Config(50*time.Millisecond, 2*time.Second, 0)
	cfg.Trace = &custom
	jobs := []Job{{Label: "custom", Config: cfg}}
	results := Run(context.Background(), 1, jobs, Traces(dir))
	if err := FirstErr(results); err != nil {
		t.Fatal(err)
	}
	if custom.n == 0 {
		t.Error("custom sink received no events")
	}
	f, err := os.Open(results[0].TraceFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var kinds []otrace.Kind
	if err := otrace.Read(f, func(ev otrace.Event) error {
		kinds = append(kinds, ev.Ev)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(kinds) != 2 || kinds[0] != otrace.KindJobStart || kinds[1] != otrace.KindJobFinish {
		t.Errorf("file events %v, want exactly the job bracket", kinds)
	}
}

// TestFailedJobFinalized: a job that fails, or panics, still closes
// its job bracket on the taps, so a pipeline monitor following the
// sweep finalizes its row instead of waiting on it forever.
func TestFailedJobFinalized(t *testing.T) {
	mon := pipestat.NewMonitor(pipestat.NewLedger(obs.NewRegistry()).Chain("online"))
	jobs := []Job{
		{Label: "bad", Config: badConfig()},
		{Label: "boom", Config: tinyConfig("boom", func() { panic("kaboom") })},
	}
	results := Run(context.Background(), 1, jobs, Sink(monitorSink{mon}))
	for _, r := range results {
		if r.Err == nil {
			t.Fatalf("job %q succeeded, want a failure", r.Label)
		}
	}
	rows := mon.Jobs()
	if len(rows) != len(jobs) {
		t.Fatalf("monitor rows %+v, want one per job", rows)
	}
	for _, row := range rows {
		if !row.Finalized {
			t.Errorf("job %q: row not finalized after the job failed", row.Job)
		}
	}
}

// monitorSink feeds a pipeline monitor as if it were an analyzer on
// the online engine.
type monitorSink struct{ m *pipestat.Monitor }

func (s monitorSink) Emit(ev otrace.Event) { s.m.HandleEvent(ev) }

// countSink counts emitted events; the runner uses it single-threaded.
type countSink struct{ n int }

func (c *countSink) Emit(otrace.Event) { c.n++ }

// TestTraceDirError: an unusable trace directory fails every job
// rather than silently dropping traces.
func TestTraceDirError(t *testing.T) {
	file := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	jobs := DeltaSweep(core.INRIAPreset(),
		[]time.Duration{50 * time.Millisecond}, time.Second)
	results, sum := RunAll(context.Background(), 1, jobs, Traces(file))
	if sum.Failed != len(jobs) {
		t.Fatalf("summary %+v, want all %d jobs failed", sum, len(jobs))
	}
	for _, r := range results {
		if r.Err == nil {
			t.Errorf("job %d: no error despite unusable trace dir", r.Index)
		}
	}
}

// TestWorkerInflightGauge: running with Metrics registers the
// per-worker in-flight gauge and it returns to zero once the sweep
// finishes.
func TestWorkerInflightGauge(t *testing.T) {
	reg := obs.NewRegistry()
	jobs := DeltaSweep(core.INRIAPreset(),
		[]time.Duration{20 * time.Millisecond, 50 * time.Millisecond},
		2*time.Second)
	results := Run(context.Background(), 42, jobs, Workers(2), Metrics(reg))
	if err := FirstErr(results); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	found := 0
	for w := 0; w < 2; w++ {
		name := obs.Label("runner.worker.inflight", "worker", fmt.Sprintf("%d", w))
		v, ok := snap.Gauges[name]
		if !ok {
			continue
		}
		found++
		if v != 0 {
			t.Errorf("gauge %s = %d after sweep, want 0", name, v)
		}
	}
	if found == 0 {
		t.Error("no runner.worker.inflight gauges registered")
	}
}
