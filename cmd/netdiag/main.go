// Command netdiag is the trace-analysis command. It loads each saved
// trace once and prints the paper's four readings of its rtt series,
// separated by blank lines under a one-line trace summary:
//
//   - loss (Section 5, Table 3): unconditional loss probability ulp,
//     conditional loss probability clp, packet loss gap plg, the
//     burst penalty, and the Gilbert-model fit;
//   - phase (Section 4): the phase plot rtt_{n+1} vs rtt_n and the
//     bottleneck analysis read off its compression line (fixed delay
//     D, intercept, bandwidth μ), or the no-compression verdict at
//     large δ;
//   - workload (Figures 8/9): the histogram of inter-return times
//     w_{n+1} − w_n + δ, its peaks, the bulk (FTP) packet size they
//     imply through equation 6, and the compression fraction;
//   - dynamics: route-change detection (a sustained step in the RTT
//     baseline, as in [21]), periodic-disturbance detection (the
//     every-90-seconds gateway pathology of [22]), and the delay
//     process's AR order by AIC with its residual whiteness.
//
// Usage:
//
//	netdiag [-first 800] [-w 72] [-h 28] [-mu 0] [-bin 1.5] trace.csv [...]
//
// -first, -w and -h shape the phase section, which reads only the
// first N probes as the paper's figures do. -mu and -bin shape the
// workload section; with -mu 0 it uses the bottleneck bandwidth
// recorded in the trace or, failing that, the phase-plot estimate.
//
// A trace or section that cannot be read (say, workload without -mu on
// a trace that records no bandwidth, at a δ too large for the phase
// estimate) prints a one-line note in its place; the rest is still
// printed and netdiag exits 1.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"time"

	"netprobe/internal/core"
	"netprobe/internal/dynamics"
	"netprobe/internal/fec"
	"netprobe/internal/loss"
	"netprobe/internal/obs"
	"netprobe/internal/phase"
	"netprobe/internal/plot"
	"netprobe/internal/trace"
	"netprobe/internal/tsa"
	"netprobe/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("netdiag: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run parses args, writes every trace's sections to out, and returns
// the errors behind the notes it printed, joined.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("netdiag", flag.ExitOnError)
	var (
		first = fs.Int("first", 800, "phase: use only the first N probes (0 = all), as the paper's figures do")
		w     = fs.Int("w", 72, "phase: plot width in characters")
		h     = fs.Int("h", 28, "phase: plot height in characters")
		mu    = fs.Float64("mu", 0, "workload: bottleneck bandwidth in b/s (0 = from trace or phase plot)")
		bin   = fs.Float64("bin", 1.5, "workload: histogram bin width in ms")
	)
	checkVersion := obs.VersionFlag(fs)
	fs.Parse(args) // ExitOnError: a bad flag exits 2 with usage
	checkVersion()
	if fs.NArg() == 0 {
		return errors.New("usage: netdiag [flags] trace.csv [...]")
	}
	var errs []error
	for i, path := range fs.Args() {
		if i > 0 {
			fmt.Fprintln(out)
		}
		tr, err := trace.Load(path)
		if err != nil {
			err = fmt.Errorf("%s: load: %w", path, err)
			fmt.Fprintf(out, "== %v\n", err)
			errs = append(errs, err)
			continue
		}
		fmt.Fprintf(out, "== %s\n", tr)
		lossSection(out, tr)
		for _, s := range []struct {
			name  string
			print func() error
		}{
			{"phase", func() error { return phaseSection(out, tr, *first, *w, *h) }},
			{"workload", func() error { return workloadSection(out, tr, *mu, *bin) }},
			{"dynamics", func() error { return dynamicsSection(out, tr) }},
		} {
			fmt.Fprintln(out)
			if err := s.print(); err != nil {
				fmt.Fprintf(out, "%s: %v\n", s.name, err)
				errs = append(errs, fmt.Errorf("%s: %s: %w", path, s.name, err))
			}
		}
	}
	return errors.Join(errs...)
}

// lossSection prints the Section 5 loss statistics as one Table 3 row,
// plus the Gilbert fit when the trace has one.
func lossSection(out io.Writer, tr *core.Trace) {
	fmt.Fprintf(out, "%-10s %8s %8s %8s %8s %10s %12s\n",
		"delta", "probes", "ulp", "clp", "plg", "mean run", "burst pen.")
	s := loss.AnalyzeTrace(tr)
	bp := fec.BurstPenalty(tr.LossIndicator())
	fmt.Fprintf(out, "%-10v %8d %8.3f %8.3f %8.2f %10.2f %12.2f\n",
		tr.Delta.Round(time.Millisecond), s.N, s.ULP, s.CLP, s.PLG, s.MeanRun, bp)
	if g, err := loss.FitGilbert(tr.LossIndicator()); err == nil {
		fmt.Fprintf(out, "           gilbert: p01=%.3f p11=%.3f stationary=%.3f mean burst=%.2f\n",
			g.P01, g.P11, g.StationaryLoss(), g.MeanBurst())
	}
}

// phaseSection renders the phase plot of the first probes of tr and
// prints the Section 4 bottleneck analysis.
func phaseSection(out io.Writer, tr *core.Trace, first, w, h int) error {
	if first > 0 && first < tr.Len() {
		tr = tr.Slice(0, first)
	}
	p := phase.New(tr)
	var xs, ys []float64
	for _, pt := range p.Points {
		xs = append(xs, pt.X)
		ys = append(ys, pt.Y)
	}
	if len(xs) == 0 {
		return errors.New("no consecutive received probe pairs in trace")
	}

	est, estErr := phase.EstimateBottleneck(tr, 0)
	lines := []plot.RefLine{{Slope: 1, Intercept: 0, Ch: '\\'}}
	if estErr == nil {
		lines = append(lines, plot.RefLine{Slope: 1, Intercept: -est.InterceptMs, Ch: '-'})
	}
	fmt.Fprintf(out, "phase plot of %s (%d points; x = rtt_n, y = rtt_n+1, ms)\n", tr.Name, len(xs))
	fmt.Fprint(out, plot.Scatter(xs, ys, w, h, lines...))
	switch {
	case estErr == nil:
		fmt.Fprintf(out, "\n%s\n", est)
	case errors.Is(estErr, phase.ErrNoCompression):
		fmt.Fprintf(out, "\nno probe-compression line (expected at large δ): D≈%.1f ms, points scatter around the diagonal (%.0f%% within ±5 ms)\n",
			est.FixedDelayMs, 100*p.DiagonalFraction(5))
	default:
		return estErr
	}
	return nil
}

// workloadSection prints the Figure 8/9 analysis: the inter-return
// histogram, its peaks, and the workload sizes they imply at
// bottleneck bandwidth mu (0 = recorded in the trace or estimated).
func workloadSection(out io.Writer, tr *core.Trace, mu, bin float64) error {
	switch {
	case mu > 0:
	case tr.BottleneckBps > 0:
		mu = float64(tr.BottleneckBps)
		fmt.Fprintf(out, "using bottleneck %.0f b/s recorded in the trace\n", mu)
	default:
		est, err := phase.EstimateBottleneck(tr, 0)
		if err != nil {
			return fmt.Errorf("no bandwidth (none in trace, phase estimate failed: %w); pass -mu", err)
		}
		mu = est.BottleneckBps
		fmt.Fprintf(out, "using phase-plot bandwidth estimate %.0f b/s\n", mu)
	}

	fmt.Fprintf(out, "distribution of w_n+1 − w_n + δ for %s:\n", tr.Name)
	fmt.Fprint(out, plot.Histogram(workload.Distribution(tr, bin), 48))

	a, err := workload.Analyze(tr, mu, bin)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "\n%s\n", a)
	if bulk, err := a.InferredBulkBytes(); err == nil {
		fmt.Fprintf(out, "inferred bulk packet size: %.0f bytes (eq. 6: b = μ·peak − P)\n", bulk)
	}
	fmt.Fprintf(out, "compression fraction (mass near P/μ): %.1f%%\n",
		100*workload.CompressionFraction(tr, mu, 3))
	return nil
}

// dynamicsSection prints the route-change, periodic-disturbance and
// delay-process diagnoses.
func dynamicsSection(out io.Writer, tr *core.Trace) error {
	switch shift, err := dynamics.DetectLevelShift(tr, 0, 0); {
	case err == nil:
		fmt.Fprintf(out, "route change: baseline %.1f → %.1f ms (Δ %+.1f ms) at probe %d (t ≈ %v)\n",
			shift.BeforeMs, shift.AfterMs, shift.ShiftMs(), shift.Index, shift.At.Round(time.Second))
	case errors.Is(err, dynamics.ErrNoShift):
		fmt.Fprintln(out, "route change: none detected (stable baseline)")
	default:
		return err
	}

	switch per, err := dynamics.DetectPeriodicity(tr, 0); {
	case err == nil:
		fmt.Fprintf(out, "periodic disturbance: every %v (lag %d probes, autocorrelation %.2f)\n",
			per.Period.Round(time.Second), per.Lag, per.Correlation)
	case errors.Is(err, dynamics.ErrNoPeriodicity):
		fmt.Fprintln(out, "periodic disturbance: none detected")
	default:
		return err
	}

	rtts := tr.RTTMillis()
	if m, err := tsa.SelectAR(rtts, 10); err == nil {
		q := tsa.LjungBox(m.Residuals(rtts), 10)
		fmt.Fprintf(out, "delay process: AR(%d) by AIC, σ≈%.1f ms, Ljung–Box(10) of residuals %.1f (white ≈ 10)\n",
			m.Order(), math.Sqrt(m.Sigma2), q)
	}
	return nil
}
