package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"netprobe/internal/core"
	"netprobe/internal/trace"
)

// TestSectionsMatchGoldens runs netdiag over two seeded INRIA–UMd
// sims, one at δ = 50 ms and one at δ = 500 ms, where the phase plot
// has no compression line. The δ = 500 ms trace records no bottleneck
// bandwidth, like every netdyn-probe trace.
//
// Each section must equal, byte for byte, its golden: the output of
// the four single-purpose commands netdiag replaced (lossstats,
// phaseplot, workloadist and the old dynamics-only netdiag), run on
// the same CSV files with the same flags. The loss and dynamics
// sections read no flag, so their goldens are testdata/<trace>.loss
// and testdata/<trace>.dynamics; the phase and workload goldens are
// per flag set, under testdata/<case>/. The .dynamics golden's first
// line is the per-trace summary netdiag prints above the sections.
//
// Without -mu the δ = 500 ms trace has no bandwidth for its workload
// section (none recorded, and no phase estimate at that δ); the old
// workloadist exited 1 there. netdiag must print the note in the
// section's place, still print the dynamics section and the next
// trace, and return an error.
func TestSectionsMatchGoldens(t *testing.T) {
	dir := t.TempDir()
	for name, sim := range map[string]struct {
		delta, duration time.Duration
		bottleneckBps   int64
	}{
		"d50":  {50 * time.Millisecond, 2 * time.Minute, 128_000},
		"d500": {500 * time.Millisecond, 5 * time.Minute, 0},
	} {
		tr, err := core.INRIAUMd(sim.delta, sim.duration, 1)
		if err != nil {
			t.Fatal(err)
		}
		tr.BottleneckBps = sim.bottleneckBps
		if err := trace.Save(filepath.Join(dir, name+".csv"), tr); err != nil {
			t.Fatal(err)
		}
	}

	const noBandwidth = "workload: no bandwidth (none in trace, phase estimate failed: " +
		"phase: no probe-compression line visible); pass -mu\n"
	for _, tc := range []struct {
		name   string
		flags  []string
		traces []string
		// failed maps a trace to the note its workload section prints.
		failed map[string]string
	}{
		{"default", nil, []string{"d500", "d50"}, map[string]string{"d500": noBandwidth}},
		{"flags", []string{"-first", "0", "-w", "60", "-h", "16", "-mu", "128000", "-bin", "12"},
			[]string{"d500", "d50"}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			golden := func(elem ...string) string {
				b, err := os.ReadFile(filepath.Join(append([]string{"testdata"}, elem...)...))
				if err != nil {
					t.Fatal(err)
				}
				return string(b)
			}
			args := tc.flags
			var want []string
			for _, tr := range tc.traces {
				args = append(args, filepath.Join(dir, tr+".csv"))
				workload, ok := tc.failed[tr]
				if !ok {
					workload = golden(tc.name, tr+".workload")
				}
				header, dyn, _ := strings.Cut(golden(tr+".dynamics"), "\n")
				want = append(want, header+"\n"+strings.Join([]string{
					golden(tr + ".loss"), golden(tc.name, tr+".phase"), workload, dyn}, "\n"))
			}
			var out bytes.Buffer
			err := run(args, &out)
			if got := out.String(); got != strings.Join(want, "\n") {
				t.Errorf("netdiag %s: output differs from the goldens\ngot:\n%s\nwant:\n%s",
					strings.Join(tc.flags, " "), got, strings.Join(want, "\n"))
			}
			switch {
			case len(tc.failed) == 0 && err != nil:
				t.Errorf("run: %v", err)
			case len(tc.failed) > 0 && (err == nil || !strings.Contains(err.Error(), "d500.csv: workload: no bandwidth")):
				t.Errorf("run error = %v, want the d500.csv workload section's", err)
			}
		})
	}
}
