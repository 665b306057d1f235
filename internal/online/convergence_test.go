package online_test

import (
	"context"
	"math"
	"testing"
	"time"

	"netprobe/internal/core"
	"netprobe/internal/loss"
	"netprobe/internal/obs"
	"netprobe/internal/online"
	"netprobe/internal/phase"
	"netprobe/internal/runner"
	"netprobe/internal/workload"
)

// onlineSweep runs a seeded 2-job INRIA δ-sweep with the online engine
// attached and returns the final analyzers plus the batch results.
func onlineSweep(t *testing.T, workers int) (*online.LossAnalyzer, *online.PhaseAnalyzer, *online.WorkloadAnalyzer, []runner.Result) {
	t.Helper()
	bus := online.NewBus()
	lossA := online.NewLossAnalyzer(nil)
	phaseA := online.NewPhaseAnalyzer(nil, 0)
	workA := online.NewWorkloadAnalyzer(nil, 1.0)
	// Capacity far above the sweep's total event count: the
	// convergence guarantee requires a drop-free stream.
	eng := online.NewEngine(bus, 1<<15, lossA, phaseA, workA)
	jobs := runner.DeltaSweep(core.INRIAPreset(),
		[]time.Duration{20 * time.Millisecond, 50 * time.Millisecond},
		5*time.Second)
	results := runner.Run(context.Background(), 42, jobs,
		runner.Workers(workers), runner.Sink(bus))
	if err := runner.FirstErr(results); err != nil {
		t.Fatal(err)
	}
	bus.Close()
	eng.Wait()
	if d := eng.Dropped(); d != 0 {
		t.Fatalf("engine dropped %d events; convergence requires a drop-free stream", d)
	}
	return lossA, phaseA, workA, results
}

// eqBits reports float equality including NaN==NaN and matching
// infinities — the "bit-equal" criterion for the loss statistics.
func eqBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// close9 is the 1e-9 relative tolerance for the μ and workload values.
func close9(a, b float64) bool {
	if a == b {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) <= 1e-9*math.Max(scale, 1)
}

// TestOnlineConvergence is the tentpole acceptance criterion: for a
// seeded sim, the end-of-stream online snapshots equal the post-hoc
// batch results of internal/loss, internal/phase, and
// internal/workload — ulp/clp/plg bit-equal, μ and workload values
// within 1e-9 — at any worker count.
func TestOnlineConvergence(t *testing.T) {
	for _, workers := range []int{1, 3} {
		lossA, phaseA, workA, results := onlineSweep(t, workers)
		for _, r := range results {
			label := r.Label

			// Loss: bit-equal ulp/clp/plg.
			batch := loss.AnalyzeTrace(r.Trace)
			got, ok := lossA.Stats(label)
			if !ok {
				t.Fatalf("workers=%d %s: no online loss stats", workers, label)
			}
			if got.N != batch.N || got.Lost != batch.Lost {
				t.Errorf("workers=%d %s: online N/Lost %d/%d, batch %d/%d",
					workers, label, got.N, got.Lost, batch.N, batch.Lost)
			}
			if !eqBits(got.ULP, batch.ULP) || !eqBits(got.CLP, batch.CLP) || !eqBits(got.PLG, batch.PLG) {
				t.Errorf("workers=%d %s: online ulp/clp/plg %v/%v/%v, batch %v/%v/%v",
					workers, label, got.ULP, got.CLP, got.PLG, batch.ULP, batch.CLP, batch.PLG)
			}
			if !eqBits(got.MeanRun, batch.MeanRun) {
				t.Errorf("workers=%d %s: online mean run %v, batch %v",
					workers, label, got.MeanRun, batch.MeanRun)
			}

			// Phase: same estimate (or the same refusal) as the batch fit.
			bEst, bErr := phase.EstimateBottleneck(r.Trace, 0)
			oEst, oErr := phaseA.Estimate(label)
			if (bErr == nil) != (oErr == nil) {
				t.Fatalf("workers=%d %s: phase errors differ: online %v, batch %v",
					workers, label, oErr, bErr)
			}
			if !close9(oEst.FixedDelayMs, bEst.FixedDelayMs) {
				t.Errorf("workers=%d %s: online D %v, batch %v",
					workers, label, oEst.FixedDelayMs, bEst.FixedDelayMs)
			}
			if bErr == nil {
				if !close9(oEst.BottleneckBps, bEst.BottleneckBps) ||
					!close9(oEst.InterceptMs, bEst.InterceptMs) ||
					!close9(oEst.ServiceTimeMs, bEst.ServiceTimeMs) ||
					oEst.CompressionPoints != bEst.CompressionPoints ||
					oEst.ResolutionLimited != bEst.ResolutionLimited {
					t.Errorf("workers=%d %s:\nonline μ estimate %+v\nbatch  μ estimate %+v",
						workers, label, oEst, bEst)
				}
			}

			// Workload: identical histogram, mean b_n and structural
			// reading within 1e-9.
			mu := float64(r.Trace.BottleneckBps)
			oHist, ok := workA.Histogram(label)
			if !ok {
				t.Fatalf("workers=%d %s: no online workload histogram", workers, label)
			}
			bHist := workload.Distribution(r.Trace, 1.0)
			if oHist.Total() != bHist.Total() || oHist.Under != bHist.Under || oHist.Over != bHist.Over {
				t.Fatalf("workers=%d %s: histogram totals differ: online %d/%d/%d batch %d/%d/%d",
					workers, label, oHist.Total(), oHist.Under, oHist.Over,
					bHist.Total(), bHist.Under, bHist.Over)
			}
			for i := range bHist.Counts {
				if oHist.Counts[i] != bHist.Counts[i] {
					t.Fatalf("workers=%d %s: histogram bin %d: online %d, batch %d",
						workers, label, i, oHist.Counts[i], bHist.Counts[i])
				}
			}
			bBits := workload.EstimateBits(r.Trace, mu)
			var bMean float64
			for _, b := range bBits {
				bMean += b
			}
			bMean /= float64(len(bBits))
			oMean, ok := workA.MeanBits(label)
			if !ok {
				t.Fatalf("workers=%d %s: no online workload mean", workers, label)
			}
			if !close9(oMean, bMean) {
				t.Errorf("workers=%d %s: online mean b_n %v, batch %v", workers, label, oMean, bMean)
			}
			bUtil := workload.UtilizationEstimate(r.Trace, mu)
			if oUtil, ok := workA.Utilization(label); !ok || !close9(oUtil, bUtil) {
				t.Errorf("workers=%d %s: online utilization %v (ok=%v), batch %v",
					workers, label, oUtil, ok, bUtil)
			}
			bAn, bAnErr := workload.Analyze(r.Trace, mu, 1.0)
			oAn, oAnErr := workA.Analysis(label)
			if (bAnErr == nil) != (oAnErr == nil) {
				t.Fatalf("workers=%d %s: workload analysis errors differ: online %v, batch %v",
					workers, label, oAnErr, bAnErr)
			}
			if bAnErr == nil {
				if len(oAn.Peaks) != len(bAn.Peaks) {
					t.Fatalf("workers=%d %s: online %d peaks, batch %d",
						workers, label, len(oAn.Peaks), len(bAn.Peaks))
				}
				for i := range bAn.Peaks {
					if oAn.Peaks[i] != bAn.Peaks[i] {
						t.Errorf("workers=%d %s: peak %d online %+v, batch %+v",
							workers, label, i, oAn.Peaks[i], bAn.Peaks[i])
					}
				}
				for i := range bAn.BulkSizesBits {
					if !close9(oAn.BulkSizesBits[i], bAn.BulkSizesBits[i]) {
						t.Errorf("workers=%d %s: bulk size %d online %v, batch %v",
							workers, label, i, oAn.BulkSizesBits[i], bAn.BulkSizesBits[i])
					}
				}
			}
		}
	}
}

// TestOnlineWithTraces: the Online option composes with Traces — the
// same sweep feeds both the per-job files and the live bus, and the
// job bracket events reach the analyzers (probes counted per job).
func TestOnlineWithTraces(t *testing.T) {
	bus := online.NewBus()
	reg := obs.NewRegistry()
	eng := online.NewEngine(bus, 1<<15, online.DefaultAnalyzers(reg)...)
	dir := t.TempDir()
	jobs := runner.DeltaSweep(core.INRIAPreset(),
		[]time.Duration{50 * time.Millisecond}, 2*time.Second)
	results := runner.Run(context.Background(), 7, jobs,
		runner.Traces(dir), runner.Sink(bus))
	if err := runner.FirstErr(results); err != nil {
		t.Fatal(err)
	}
	bus.Close()
	eng.Wait()
	lossA := eng.Analyzer("loss").(*online.LossAnalyzer)
	s, ok := lossA.Stats(results[0].Label)
	if !ok || s.N != results[0].Stats.N {
		t.Fatalf("online probes %d (ok=%v), batch %d", s.N, ok, results[0].Stats.N)
	}
	if results[0].TraceFile == "" {
		t.Error("Traces option produced no trace file alongside Online")
	}
}
