// End-to-end graceful-shutdown tests: SIGTERM mid-run must leave
// readable artifacts — a complete otrace event file and partial trace
// from netdyn-probe, and a valid manifest recording the cancelled
// jobs from experiments.
package netprobe

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"netprobe/internal/netdyn"
	"netprobe/internal/otrace"
	"netprobe/internal/runner"
	"netprobe/internal/trace"
)

// buildTool compiles one of the repo's commands into dir and returns
// the binary path.
func buildTool(t *testing.T, dir, pkg string) string {
	t.Helper()
	bin := filepath.Join(dir, filepath.Base(pkg))
	cmd := exec.Command("go", "build", "-o", bin, "./"+pkg)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build %s: %v\n%s", pkg, err, out)
	}
	return bin
}

// lockedBuffer collects a child process's output. exec's copy
// goroutine writes into it while the test polls it, so every access
// takes the mutex (a bare bytes.Buffer would race).
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// waitOutput polls out until it contains substr, failing the test if
// that takes longer than timeout.
func waitOutput(t *testing.T, out *lockedBuffer, substr string, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !strings.Contains(out.String(), substr) {
		if time.Now().After(deadline) {
			t.Fatalf("no %q in output after %v:\n%s", substr, timeout, out.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// terminate delivers SIGTERM and waits for the process to exit,
// returning its combined output.
func terminate(t *testing.T, cmd *exec.Cmd, out *lockedBuffer) string {
	t.Helper()
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("signal: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("process exited non-zero after SIGTERM: %v\n%s", err, out.String())
		}
	case <-time.After(30 * time.Second):
		cmd.Process.Kill() //nolint:errcheck
		t.Fatalf("process ignored SIGTERM\n%s", out.String())
	}
	return out.String()
}

// TestGracefulShutdownProbe: SIGTERM mid-run stops netdyn-probe
// cleanly — exit 0, partial loss statistics on stdout, a fully
// readable event trace (no truncated tail), and a loadable CSV trace
// of the probes sent so far.
func TestGracefulShutdownProbe(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second subprocess test")
	}
	echo, err := netdyn.NewEchoer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer echo.Close()

	dir := t.TempDir()
	bin := buildTool(t, dir, "cmd/netdyn-probe")
	events := filepath.Join(dir, "events.jsonl")
	csv := filepath.Join(dir, "run.csv")
	// 3000 probes at 20 ms ≈ a minute: the signal lands mid-run.
	cmd := exec.Command(bin,
		"-target", echo.Addr().String(),
		"-delta", "20ms", "-count", "3000", "-report", "0",
		"-trace", events, "-out", csv)
	var out lockedBuffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(2 * time.Second)
	stdout := terminate(t, cmd, &out)
	if !strings.Contains(stdout, "interrupted by signal") {
		t.Errorf("no interruption notice in output:\n%s", stdout)
	}
	if !strings.Contains(stdout, "trace written to") {
		t.Errorf("partial trace not written:\n%s", stdout)
	}

	// The event file must be complete and readable: the bounded sink
	// and writer were closed on the way out.
	var sent, runStarts int
	if err := otrace.ReadFile(events, func(ev otrace.Event) error {
		switch ev.Ev {
		case otrace.KindRunStart:
			runStarts++
		case otrace.KindProbeSent:
			sent++
		}
		return nil
	}); err != nil {
		t.Fatalf("event trace unreadable after SIGTERM: %v", err)
	}
	if runStarts != 1 || sent == 0 {
		t.Errorf("event trace has %d run_start and %d probe_sent events", runStarts, sent)
	}
	if sent >= 3000 {
		t.Errorf("run was not actually interrupted: %d probes sent", sent)
	}

	tr, err := trace.Load(csv)
	if err != nil {
		t.Fatalf("partial CSV trace unreadable: %v", err)
	}
	if len(tr.Samples) == 0 || len(tr.Samples) != sent {
		t.Errorf("CSV trace has %d samples, event trace sent %d", len(tr.Samples), sent)
	}
}

// TestGracefulShutdownExperiments: SIGTERM mid-sweep stops the
// experiments driver cleanly — exit 0, a valid manifest covering the
// partial sweep with the undispatched jobs marked cancelled, and
// readable trace files for every job that did complete.
func TestGracefulShutdownExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second subprocess test")
	}
	dir := t.TempDir()
	bin := buildTool(t, dir, "cmd/experiments")
	manifest := filepath.Join(dir, "manifest.json")
	traces := filepath.Join(dir, "traces")
	// One worker serializes the sweep. The signal goes out as soon as
	// the first job reports done — observed progress rather than a
	// fixed delay, which a faster batch could outrun — so at least one
	// job has completed and the later ones have not been dispatched.
	cmd := exec.Command(bin,
		"-quick", "-workers", "1", "-seed", "42",
		"-manifest", manifest, "-trace-dir", traces)
	var out lockedBuffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill() //nolint:errcheck // no-op once the process has exited
	waitOutput(t, &out, `msg="job done"`, 60*time.Second)
	stdout := terminate(t, cmd, &out)
	if !strings.Contains(stdout, "interrupted") {
		t.Errorf("no interruption notice in output:\n%s", stdout)
	}

	data, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatalf("manifest missing after SIGTERM: %v", err)
	}
	var m runner.Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("manifest is not valid JSON: %v", err)
	}
	if m.Summary.Jobs == 0 || m.Summary.Jobs != len(m.Jobs) {
		t.Fatalf("manifest jobs %d vs summary %d", len(m.Jobs), m.Summary.Jobs)
	}
	if m.Summary.Cancelled == 0 {
		t.Errorf("summary records no cancelled jobs: %+v", m.Summary)
	}
	if m.Summary.Completed == 0 {
		t.Errorf("summary records no completed jobs: %+v", m.Summary)
	}
	// Every completed job's trace file must be fully readable.
	for _, j := range m.Jobs {
		if j.Error != "" || j.TraceFile == "" {
			continue
		}
		if err := otrace.ReadFile(j.TraceFile, func(otrace.Event) error { return nil }); err != nil {
			t.Errorf("job %d (%s): trace unreadable: %v", j.Index, j.Label, err)
		}
	}
}
