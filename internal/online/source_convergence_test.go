package online_test

import (
	"context"
	"encoding/json"
	"net"
	"testing"
	"time"

	"netprobe/internal/core"
	"netprobe/internal/loss"
	"netprobe/internal/online"
	"netprobe/internal/otrace"
	"netprobe/internal/phase"
	"netprobe/internal/runner"
	"netprobe/internal/source"
	"netprobe/internal/workload"
)

// TestFileSourceReplayConvergence: replaying a job's trace file
// (otrace.ReadFiles) into a fresh engine reproduces the batch results —
// ulp/clp/plg bit-equal, μ and workload values within 1e-9. The trace
// file is a complete substitute for having watched the run live.
func TestFileSourceReplayConvergence(t *testing.T) {
	dir := t.TempDir()
	jobs := runner.DeltaSweep(core.INRIAPreset(),
		[]time.Duration{20 * time.Millisecond, 50 * time.Millisecond},
		5*time.Second)
	results := runner.Run(context.Background(), 42, jobs, runner.Traces(dir))
	if err := runner.FirstErr(results); err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		bus := online.NewBus()
		lossA := online.NewLossAnalyzer(nil)
		phaseA := online.NewPhaseAnalyzer(nil, 0)
		workA := online.NewWorkloadAnalyzer(nil, 1.0)
		eng := online.NewEngine(bus, 1<<15, lossA, phaseA, workA)
		tagged := online.Tag(bus, r.Label, 0)
		if err := otrace.ReadFiles([]string{r.TraceFile}, func(ev otrace.Event) error {
			tagged.Emit(ev)
			return nil
		}); err != nil {
			t.Fatalf("%s: replay: %v", r.Label, err)
		}
		bus.Close()
		eng.Wait()
		if d := eng.Dropped(); d != 0 {
			t.Fatalf("%s: engine dropped %d events during replay", r.Label, d)
		}

		batch := loss.AnalyzeTrace(r.Trace)
		got, ok := lossA.Stats(r.Label)
		if !ok {
			t.Fatalf("%s: no loss stats after replay", r.Label)
		}
		if got.N != batch.N || got.Lost != batch.Lost {
			t.Errorf("%s: replay N/Lost %d/%d, batch %d/%d",
				r.Label, got.N, got.Lost, batch.N, batch.Lost)
		}
		if !eqBits(got.ULP, batch.ULP) || !eqBits(got.CLP, batch.CLP) || !eqBits(got.PLG, batch.PLG) {
			t.Errorf("%s: replay ulp/clp/plg %v/%v/%v, batch %v/%v/%v",
				r.Label, got.ULP, got.CLP, got.PLG, batch.ULP, batch.CLP, batch.PLG)
		}

		bEst, bErr := phase.EstimateBottleneck(r.Trace, 0)
		oEst, oErr := phaseA.Estimate(r.Label)
		if (bErr == nil) != (oErr == nil) {
			t.Fatalf("%s: phase errors differ: replay %v, batch %v", r.Label, oErr, bErr)
		}
		if bErr == nil && (!close9(oEst.BottleneckBps, bEst.BottleneckBps) ||
			!close9(oEst.InterceptMs, bEst.InterceptMs)) {
			t.Errorf("%s: replay μ %+v, batch %+v", r.Label, oEst, bEst)
		}

		oHist, ok := workA.Histogram(r.Label)
		if !ok {
			t.Fatalf("%s: no workload histogram after replay", r.Label)
		}
		bHist := workload.Distribution(r.Trace, 1.0)
		if oHist.Total() != bHist.Total() || oHist.Under != bHist.Under || oHist.Over != bHist.Over {
			t.Fatalf("%s: histogram totals differ: replay %d/%d/%d batch %d/%d/%d",
				r.Label, oHist.Total(), oHist.Under, oHist.Over,
				bHist.Total(), bHist.Under, bHist.Over)
		}
		for i := range bHist.Counts {
			if oHist.Counts[i] != bHist.Counts[i] {
				t.Fatalf("%s: histogram bin %d: replay %d, batch %d",
					r.Label, i, oHist.Counts[i], bHist.Counts[i])
			}
		}
	}
}

// TestRemoteEngineMatchesLocal is the relay acceptance criterion as a
// test: one sweep feeds a local engine directly and a remote engine
// through the full wire path (Sender → TCP → Serve), and the two
// engines' final snapshots are identical — same JSON the /online
// endpoints would serve. Checked at several worker counts.
func TestRemoteEngineMatchesLocal(t *testing.T) {
	for _, workers := range []int{1, 3} {
		localBus := online.NewBus()
		localEng := online.NewEngine(localBus, 1<<15, online.DefaultAnalyzers(nil)...)

		remoteBus := online.NewBus()
		remoteEng := online.NewEngine(remoteBus, 1<<15, online.DefaultAnalyzers(nil)...)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv, err := source.Serve(ln, source.ServerConfig{Sink: remoteBus})
		if err != nil {
			t.Fatal(err)
		}
		sender, err := source.Dial(ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}

		jobs := runner.DeltaSweep(core.INRIAPreset(),
			[]time.Duration{20 * time.Millisecond, 50 * time.Millisecond},
			5*time.Second)
		results := runner.Run(context.Background(), 42, jobs,
			runner.Workers(workers), runner.Sink(localBus), runner.Sink(sender))
		if err := runner.FirstErr(results); err != nil {
			t.Fatal(err)
		}
		if err := sender.Close(); err != nil {
			t.Fatalf("closing sender: %v", err)
		}
		// Graceful close: the handler drains the peer's buffered frames
		// to EOF before Close returns.
		if err := srv.Close(); err != nil {
			t.Fatalf("closing server: %v", err)
		}
		localBus.Close()
		remoteBus.Close()
		localEng.Wait()
		remoteEng.Wait()
		if d := localEng.Dropped(); d != 0 {
			t.Fatalf("workers=%d: local engine dropped %d events", workers, d)
		}
		if d := remoteEng.Dropped(); d != 0 {
			t.Fatalf("workers=%d: remote engine dropped %d events", workers, d)
		}

		local, err := json.Marshal(localEng.Snapshots())
		if err != nil {
			t.Fatal(err)
		}
		remote, err := json.Marshal(remoteEng.Snapshots())
		if err != nil {
			t.Fatal(err)
		}
		if string(local) != string(remote) {
			t.Errorf("workers=%d: remote snapshot differs from local\nlocal:  %.200s\nremote: %.200s",
				workers, local, remote)
		}
	}
}
