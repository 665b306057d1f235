package main

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"netprobe/internal/coord"
	"netprobe/internal/core"
	"netprobe/internal/faultinject"
	"netprobe/internal/netdyn"
	"netprobe/internal/otrace"
)

// countSink counts the events it receives, and the fault events among
// them, from any number of goroutines.
type countSink struct{ events, faults atomic.Int64 }

func (c *countSink) Emit(ev otrace.Event) {
	c.events.Add(1)
	if ev.Ev == otrace.KindFault {
		c.faults.Add(1)
	}
}

// simReference runs the INRIA preset at δ=20 ms for 5 s with seed 3
// directly, the run the sim specs below describe.
func simReference(t *testing.T, plan *faultinject.Plan) (coord.Result, *countSink) {
	t.Helper()
	var sink countSink
	cfg := core.INRIAPreset().Config(20*time.Millisecond, 5*time.Second, 3)
	cfg.Faults = plan
	cfg.Trace = &sink
	tr, err := core.RunSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return coord.Result{Probes: tr.Len(), Losses: tr.Len() - tr.Received()}, &sink
}

func simSpec(faults string) coord.Spec {
	return coord.Spec{Name: "sim", Mode: "sim", Target: "inria",
		Delta: coord.Duration(20 * time.Millisecond), Duration: coord.Duration(5 * time.Second),
		Seed: 3, Faults: faults}
}

// TestSimSpecMatchesRunSim: a sim spec executed by the agent gives the
// same result, and streams the same number of events, as core.RunSim
// of that preset, δ, duration and seed.
func TestSimSpecMatchesRunSim(t *testing.T) {
	want, ref := simReference(t, nil)
	var sink countSink
	got, err := executeJob(context.Background(), simSpec(""), &sink, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("result %+v, want %+v", got, want)
	}
	if got, want := sink.events.Load(), ref.events.Load(); got != want || want == 0 {
		t.Fatalf("sink saw %d events, RunSim %d", got, want)
	}
}

// TestSimSpecCancelled: a sim job whose context is already done does
// not start, so nothing reaches the sink.
func TestSimSpecCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var sink countSink
	if _, err := executeJob(ctx, simSpec(""), &sink, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v, want context.Canceled", err)
	}
	if n := sink.events.Load(); n != 0 {
		t.Fatalf("cancelled job streamed %d events", n)
	}
}

// TestSpecFaultsOverrideDefaultPlan: the agent's default plan impairs
// a sim job unless the spec carries a plan of its own, which then
// replaces it.
func TestSpecFaultsOverrideDefaultPlan(t *testing.T) {
	lossy, err := faultinject.Parse([]byte(`{"seed":1,"drop":0.3}`))
	if err != nil {
		t.Fatal(err)
	}
	clean, err := faultinject.Parse([]byte(`{"seed":1}`))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		faults string
		plan   *faultinject.Plan
	}{
		{"default plan", "", lossy},
		{"spec plan", `{"seed":1}`, clean},
	} {
		want, ref := simReference(t, tc.plan)
		var sink countSink
		got, err := executeJob(context.Background(), simSpec(tc.faults), &sink, lossy)
		if err != nil {
			t.Fatal(err)
		}
		if got != want || sink.events.Load() != ref.events.Load() || sink.faults.Load() != ref.faults.Load() {
			t.Fatalf("%s: result %+v with %d events (%d faults), want %+v with %d (%d)", tc.name,
				got, sink.events.Load(), sink.faults.Load(), want, ref.events.Load(), ref.faults.Load())
		}
	}
	// The override is visible: the default plan's drops are gone.
	withDefault, _ := simReference(t, lossy)
	withSpec, _ := simReference(t, clean)
	if withDefault.Losses <= withSpec.Losses {
		t.Fatalf("default plan lost %d probes, spec plan %d: the plans do not differ",
			withDefault.Losses, withSpec.Losses)
	}
}

// TestSpecErrors: malformed specs fail before anything runs.
func TestSpecErrors(t *testing.T) {
	for _, tc := range []struct {
		spec coord.Spec
		want string
	}{
		{coord.Spec{Mode: "warp", Target: "inria"}, `unknown job mode "warp"`},
		{coord.Spec{Mode: "sim", Target: "atlantis"}, `unknown sim preset "atlantis"`},
		{coord.Spec{Mode: "probe"}, "probe job has no target"},
		{coord.Spec{Mode: "sim", Target: "inria", Faults: "{"}, "job fault plan"},
	} {
		_, err := executeJob(context.Background(), tc.spec, otrace.Discard, nil)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("spec %+v: err %v, want %q", tc.spec, err, tc.want)
		}
	}
}

// TestProbeSpecLoopback: a probe spec runs a real session against a
// loopback echo server.
func TestProbeSpecLoopback(t *testing.T) {
	echo, err := netdyn.NewEchoer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer echo.Close()
	spec := coord.Spec{Name: "lab", Mode: "probe", Target: echo.Addr().String(),
		Delta: coord.Duration(5 * time.Millisecond), Count: 20}
	var sink countSink
	got, err := executeJob(context.Background(), spec, &sink, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Probes != 20 {
		t.Fatalf("result %+v, want 20 probes", got)
	}
	if sink.events.Load() == 0 {
		t.Fatal("probe job streamed no events")
	}
}
