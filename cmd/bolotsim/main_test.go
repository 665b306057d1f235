package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestFatalErrorReachesWarnLevel runs bolotsim with -log warn and an
// -out name it refuses, by re-running this test binary with the
// command line after "--". The command must exit 1 and say why at
// level=ERROR: log.Fatal goes through slog once obs.Setup has
// installed the default logger, and at INFO a -log warn run would
// exit without a word.
func TestFatalErrorReachesWarnLevel(t *testing.T) {
	if args := flag.Args(); len(args) > 0 && args[0] == "bolotsim" {
		os.Args = args
		main()
		return
	}
	out := filepath.Join(t.TempDir(), "x.json")
	cmd := exec.Command(os.Args[0], "-test.run=^TestFatalErrorReachesWarnLevel$", "--",
		"bolotsim", "-log", "warn", "-duration", "1s", "-out", out)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("bolotsim -log warn -out %s: got %v, want exit status 1\nstderr:\n%s", out, err, &stderr)
	}
	for _, want := range []string{"level=ERROR", "x.json"} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("stderr lacks %q:\n%s", want, &stderr)
		}
	}
}
