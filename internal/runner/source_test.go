package runner

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"netprobe/internal/core"
	"netprobe/internal/otrace"
	"netprobe/internal/source"
)

// sweepConfigs is the job set both equivalence sweeps are built from.
func sweepConfigs() []core.SimConfig {
	p := core.INRIAPreset()
	return []core.SimConfig{
		p.Config(20*time.Millisecond, 5*time.Second, 0),
		p.Config(50*time.Millisecond, 5*time.Second, 0),
		p.Config(100*time.Millisecond, 5*time.Second, 0),
	}
}

// runSweep runs the configs either as plain Config jobs or wrapped in
// SimSources, with trace files, and returns results plus the dir.
func runSweep(t *testing.T, asSource bool, workers int) ([]Result, string) {
	t.Helper()
	dir := t.TempDir()
	var jobs []Job
	for i, cfg := range sweepConfigs() {
		j := Job{Label: fmt.Sprintf("job-%03d", i)}
		if asSource {
			j.Source = &source.SimSource{Label: j.Label, Config: cfg}
		} else {
			j.Config = cfg
		}
		jobs = append(jobs, j)
	}
	results := Run(context.Background(), 42, jobs, Workers(workers), Traces(dir))
	if err := FirstErr(results); err != nil {
		t.Fatal(err)
	}
	return results, dir
}

// TestSourceJobsMatchConfigJobs is the tentpole equivalence: a sweep
// expressed as Source jobs produces byte-identical trace files to the
// same sweep expressed as Config jobs, at any worker count, and the
// Traced trace flows back into the Result.
func TestSourceJobsMatchConfigJobs(t *testing.T) {
	cfgRes, cfgDir := runSweep(t, false, 1)
	for _, workers := range []int{1, 4} {
		srcRes, srcDir := runSweep(t, true, workers)
		for i := range cfgRes {
			a, err := os.ReadFile(filepath.Join(cfgDir, TraceFileName(i)))
			if err != nil {
				t.Fatal(err)
			}
			b, err := os.ReadFile(filepath.Join(srcDir, TraceFileName(i)))
			if err != nil {
				t.Fatal(err)
			}
			if len(a) == 0 || string(a) != string(b) {
				t.Errorf("workers=%d job %d: source trace differs from config trace", workers, i)
			}
			if srcRes[i].Trace == nil {
				t.Fatalf("workers=%d job %d: no trace from Traced source", workers, i)
			}
			if srcRes[i].Stats.N != cfgRes[i].Stats.N || srcRes[i].Stats.Lost != cfgRes[i].Stats.Lost ||
				srcRes[i].Stats.ULP != cfgRes[i].Stats.ULP || srcRes[i].Stats.CLP != cfgRes[i].Stats.CLP {
				t.Errorf("workers=%d job %d: stats %+v vs %+v", workers, i, srcRes[i].Stats, cfgRes[i].Stats)
			}
			if srcRes[i].Seed != cfgRes[i].Seed {
				t.Errorf("workers=%d job %d: seeds %d vs %d differ", workers, i, srcRes[i].Seed, cfgRes[i].Seed)
			}
		}
	}
}

// TestFileSourceJob: a recorded job replayed through a FileSource job
// reproduces the original probe events and reconstructs the trace into
// the Result.
func TestFileSourceJob(t *testing.T) {
	_, dir := runSweep(t, false, 1)
	recorded, err := os.ReadFile(filepath.Join(dir, TraceFileName(1)))
	if err != nil {
		t.Fatal(err)
	}

	replayDir := t.TempDir()
	jobs := []Job{{
		Label:  "replay",
		Source: &source.FileSource{Label: "replay", Paths: []string{filepath.Join(dir, TraceFileName(1))}},
	}}
	results := Run(context.Background(), 42, jobs, Traces(replayDir))
	if err := FirstErr(results); err != nil {
		t.Fatal(err)
	}
	if results[0].Trace == nil {
		t.Fatal("replay produced no reconstructed trace")
	}

	// The replay's file carries its own job bracket around the original
	// stream (including the original bracket): strip the outer bracket
	// and compare.
	f, err := os.Open(results[0].TraceFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close() //nolint:errcheck // read side
	var evs []otrace.Event
	if err := otrace.Read(f, func(ev otrace.Event) error {
		evs = append(evs, ev)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(evs) < 2 || evs[0].Ev != otrace.KindJobStart || evs[len(evs)-1].Ev != otrace.KindJobFinish {
		t.Fatalf("replay file is not bracketed: %d events", len(evs))
	}
	var origCount int
	if err := otrace.Read(bytes.NewReader(recorded), func(otrace.Event) error {
		origCount++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := len(evs) - 2; got != origCount {
		t.Fatalf("replay delivered %d events, original file has %d", got, origCount)
	}
}
