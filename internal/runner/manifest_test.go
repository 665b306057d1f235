package runner

import (
	"encoding/json"
	"errors"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"netprobe/internal/loss"
	"netprobe/internal/obs"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenManifest builds a fully deterministic manifest: fixed
// results, summary, and metrics, with the build/time stamps pinned.
func goldenManifest() *Manifest {
	results := []Result{
		{Index: 0, Label: "inria δ=50ms", Seed: DeriveSeed(42, 0),
			Wall:  1234567 * time.Nanosecond,
			Stats: statsFor(1200, 96, 0.08, 0.125, 1.1429)},
		{Index: 1, Label: "inria δ=500ms", Seed: DeriveSeed(42, 1),
			Wall:  2 * time.Millisecond,
			Stats: statsFor(120, 0, 0, math.NaN(), math.NaN())},
		{Index: 2, Label: "pitt δ=8ms", Seed: DeriveSeed(42, 2),
			Err: errors.New("context canceled")},
	}
	sum := Summary{
		Jobs: 3, Completed: 2, Failed: 0, Cancelled: 1,
		Wall: 5 * time.Millisecond, Workers: 2,
		WorkerBusy: []time.Duration{3 * time.Millisecond, 2 * time.Millisecond},
	}
	reg := obs.NewRegistry()
	reg.Counter("sim.events").Add(123456)
	reg.Gauge("sim.heap.high_water").Set(87)
	h := reg.Histogram("runner.job.wall", []float64{0.001, 0.01, 0.1})
	h.Observe(0.0012)
	h.Observe(0.002)

	m := NewManifest("experiments", 42, results, sum)
	m.GoVersion = "go1.x"                // pinned for the golden file
	m.Timestamp = "2026-01-01T00:00:00Z" // pinned for the golden file
	m.Flags = map[string]string{"quick": "true", "workers": "2"}
	m.Presets = []string{"inria", "pitt"}
	snap := reg.Snapshot()
	m.Metrics = &snap
	return m
}

func statsFor(n, lost int, ulp, clp, plg float64) (s loss.Stats) {
	s.N = n
	s.Lost = lost
	s.ULP = ulp
	s.CLP = clp
	s.PLG = plg
	return s
}

// TestManifestGolden locks the manifest JSON shape: any field
// rename, reordering, or NaN leak shows up as a golden diff. Run with
// -update to accept intentional changes.
func TestManifestGolden(t *testing.T) {
	m := goldenManifest()
	got, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	golden := filepath.Join("testdata", "manifest.golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with: go test ./internal/runner -run Golden -update)", err)
	}
	if string(got) != string(want) {
		t.Errorf("manifest JSON drifted from golden file.\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestManifestWriteAndReload: Write produces a file that parses back
// into an equivalent manifest, and the undefined loss stats stay
// omitted rather than becoming NaN.
func TestManifestWriteAndReload(t *testing.T) {
	m := goldenManifest()
	path := filepath.Join(t.TempDir(), "manifest.json")
	if err := m.Write(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back Manifest
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("written manifest is not valid JSON: %v", err)
	}
	if back.Tool != "experiments" || back.RootSeed != 42 || len(back.Jobs) != 3 {
		t.Errorf("reloaded manifest = %+v", back)
	}
	if back.Jobs[1].CLP != nil || back.Jobs[1].PLG != nil {
		t.Error("NaN loss stats were serialized instead of omitted")
	}
	if back.Jobs[0].ULP == nil || *back.Jobs[0].ULP != 0.08 {
		t.Errorf("job 0 ulp = %v", back.Jobs[0].ULP)
	}
	if back.Jobs[2].Error == "" {
		t.Error("cancelled job's error missing")
	}
	if back.Metrics == nil || back.Metrics.Counters["sim.events"] != 123456 {
		t.Errorf("metrics snapshot lost: %+v", back.Metrics)
	}
	if back.Summary.Cancelled != 1 || back.Summary.Workers != 2 {
		t.Errorf("summary = %+v", back.Summary)
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
