package runner

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"netprobe/internal/obs"
)

// Manifest is the JSON artifact an instrumented sweep writes: enough
// to reproduce the run (tool, flags, root seed, per-job derived
// seeds), to diff its performance against past runs (per-job and
// total wall times, worker utilization, the metrics snapshot), and to
// audit its outcome (loss stats, errors, cancellations). Perf PRs
// regress against these files.
type Manifest struct {
	// Tool names the command that produced the run, e.g.
	// "experiments".
	Tool string `json:"tool"`
	// GoVersion and Timestamp identify the build and the moment the
	// manifest was written (RFC 3339).
	GoVersion string `json:"go_version"`
	Timestamp string `json:"timestamp"`
	// RootSeed is the seed every per-job seed derives from.
	RootSeed int64 `json:"root_seed"`
	// Flags records the command-line configuration as given.
	Flags map[string]string `json:"flags,omitempty"`
	// Presets names the core presets the sweep used.
	Presets []string `json:"presets,omitempty"`
	// Jobs has one record per submitted job, in submission order.
	Jobs []ManifestJob `json:"jobs"`
	// Summary is the pool-level outcome.
	Summary ManifestSummary `json:"summary"`
	// Metrics is the registry snapshot at write time (sim engine
	// counters, runner timers, ...).
	Metrics *obs.Snapshot `json:"metrics,omitempty"`
}

// ManifestJob is one job's record. CLP and PLG are omitted when
// undefined (no losses), keeping the document valid JSON.
type ManifestJob struct {
	Index  int      `json:"index"`
	Label  string   `json:"label"`
	Seed   int64    `json:"seed"`
	WallMS float64  `json:"wall_ms"`
	Sent   int      `json:"sent,omitempty"`
	Lost   int      `json:"lost,omitempty"`
	ULP    *float64 `json:"ulp,omitempty"`
	CLP    *float64 `json:"clp,omitempty"`
	PLG    *float64 `json:"plg,omitempty"`
	// TraceFile points at the job's lifecycle-event file (otrace
	// JSONL) when the pool ran with the Traces option.
	TraceFile string `json:"trace_file,omitempty"`
	Error     string `json:"error,omitempty"`
}

// ManifestSummary mirrors Summary in JSON-friendly units.
type ManifestSummary struct {
	Jobs         int       `json:"jobs"`
	Completed    int       `json:"completed"`
	Failed       int       `json:"failed"`
	Cancelled    int       `json:"cancelled"`
	WallMS       float64   `json:"wall_ms"`
	Workers      int       `json:"workers"`
	WorkerBusyMS []float64 `json:"worker_busy_ms"`
	Utilization  float64   `json:"utilization"`
}

// NewManifest assembles a manifest from a finished sweep. GoVersion
// and Timestamp are stamped from the running process; tests overwrite
// them for byte-stable golden comparisons. Flags, Presets, and
// Metrics start empty for the caller to fill.
func NewManifest(tool string, rootSeed int64, results []Result, sum Summary) *Manifest {
	m := &Manifest{
		Tool:      tool,
		GoVersion: runtime.Version(),
		Timestamp: time.Now().UTC().Format(time.RFC3339),
		RootSeed:  rootSeed,
		Jobs:      make([]ManifestJob, len(results)),
		Summary: ManifestSummary{
			Jobs:         sum.Jobs,
			Completed:    sum.Completed,
			Failed:       sum.Failed,
			Cancelled:    sum.Cancelled,
			WallMS:       durMS(sum.Wall),
			Workers:      sum.Workers,
			WorkerBusyMS: make([]float64, len(sum.WorkerBusy)),
			Utilization:  round4(sum.Utilization()),
		},
	}
	for i, b := range sum.WorkerBusy {
		m.Summary.WorkerBusyMS[i] = durMS(b)
	}
	for i, r := range results {
		j := ManifestJob{
			Index:  r.Index,
			Label:  r.Label,
			Seed:   r.Seed,
			WallMS: durMS(r.Wall),
			Sent:   r.Stats.N,
			Lost:   r.Stats.Lost,
			ULP:    finite(r.Stats.ULP),
			CLP:    finite(r.Stats.CLP),
			PLG:    finite(r.Stats.PLG),

			TraceFile: r.TraceFile,
		}
		if r.Err != nil {
			j.Error = r.Err.Error()
		}
		m.Jobs[i] = j
	}
	return m
}

// Write marshals the manifest (indented, trailing newline) to path.
// The write is atomic — a temp file in the same directory renamed over
// path — so a crash or signal mid-write can never leave a truncated
// manifest behind: readers see either the old document or the new one.
func (m *Manifest) Write(path string) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("runner: marshal manifest: %w", err)
	}
	data = append(data, '\n')
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("runner: write manifest: %w", err)
	}
	_, werr := tmp.Write(data)
	if err := tmp.Chmod(0o644); werr == nil {
		werr = err
	}
	if err := tmp.Close(); werr == nil {
		werr = err
	}
	if werr == nil {
		werr = os.Rename(tmp.Name(), path)
	}
	if werr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("runner: write manifest: %w", werr)
	}
	return nil
}

// durMS converts a duration to fractional milliseconds rounded to the
// microsecond, keeping manifests compact and diffable.
func durMS(d time.Duration) float64 {
	return math.Round(float64(d)/float64(time.Microsecond)) / 1000
}

func round4(v float64) float64 { return math.Round(v*1e4) / 1e4 }

// finite returns &v when v is a finite number and nil otherwise, so
// NaN/Inf loss stats are omitted from the JSON rather than breaking
// it.
func finite(v float64) *float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return nil
	}
	v = round4(v)
	return &v
}
