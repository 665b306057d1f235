// Command experiments regenerates every table and figure of the paper
// from the simulated INRIA–UMd and UMd–Pittsburgh paths, printing the
// paper's reported values next to the measured ones. Run with -quick
// for shorter simulations during development; the default runs the
// paper's full 10-minute experiments.
//
// All simulations are independent jobs executed by internal/runner's
// worker pool, so the full reproduction uses every core. Per-job
// seeds are derived from -seed, making the output identical at any
// -workers value.
//
// Every run emits live per-job progress lines through the shared
// structured logger (-log/-logfmt) and writes a JSON run manifest
// (flags, per-job seeds and wall times, loss stats, and the metrics
// registry snapshot) so performance and correctness trajectories are
// diffable across commits; -manifest "" disables it.
//
// Usage:
//
//	experiments [-quick] [-seed 42] [-plots] [-workers N]
//	            [-log info] [-logfmt text|json] [-debug-addr :6060]
//	            [-manifest experiments-manifest.json]
//	            [-trace-dir traces/]
//	            [-online] [-online-window N] [-relay host:port]
//	            [-version]
//
// -trace-dir writes one probe-lifecycle event file (otrace JSONL,
// job-NNN.jsonl) per job, referenced from the manifest; the files are
// byte-identical at any -workers value.
//
// -online streams every job's events through the in-process analysis
// engine (internal/online): while the reproduction is running, GET
// /online on the -debug-addr server reports each job's running loss
// statistics, live bottleneck-μ estimate, and workload histogram, and
// online.* gauges appear on /metrics; -online-window caps the
// analyzers to the trailing N probes per job. -relay streams the same
// job-tagged events to a netdyn-relay collector over TCP, which then
// computes the identical analysis remotely.
//
// SIGINT or SIGTERM stops the sweep gracefully: running jobs finish,
// undispatched ones are recorded as cancelled, the manifest is still
// written (covering the partial sweep), and the figures are skipped.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"netprobe/internal/capacity"
	"netprobe/internal/core"
	"netprobe/internal/dynamics"
	"netprobe/internal/fec"
	"netprobe/internal/loss"
	"netprobe/internal/obs"
	"netprobe/internal/online"
	"netprobe/internal/phase"
	"netprobe/internal/pipestat"
	"netprobe/internal/plot"
	"netprobe/internal/queue"
	"netprobe/internal/route"
	"netprobe/internal/runner"
	"netprobe/internal/sim"
	"netprobe/internal/source"
	"netprobe/internal/tcp"
	"netprobe/internal/tsa"
	"netprobe/internal/tshist"
	"netprobe/internal/workload"
)

var (
	quick    = flag.Bool("quick", false, "run 2-minute experiments instead of 10-minute ones")
	seed     = flag.Int64("seed", 42, "root seed; per-experiment seeds are derived from it")
	plots    = flag.Bool("plots", false, "render ASCII figures, not just numbers")
	workers  = flag.Int("workers", 0, "parallel simulation workers (0 = GOMAXPROCS)")
	manifest = flag.String("manifest", "experiments-manifest.json",
		"run-manifest output path; empty disables the manifest")
	traceDir = flag.String("trace-dir", "",
		"directory for per-job probe-lifecycle event files (otrace JSONL); empty disables tracing")
	onlineOn = flag.Bool("online", false,
		"stream job events through the online analysis engine (serves /online on -debug-addr)")
	onlineWin = flag.Int("online-window", 0,
		"cap the online analyzers to the trailing N probes per job (0 = all-time statistics)")
	relay = flag.String("relay", "",
		"stream job events to a netdyn-relay collector at this address; empty disables")
	obsFlags    = obs.RegisterFlags(flag.CommandLine)
	tshistFlags = tshist.RegisterFlags(flag.CommandLine)
)

// The online engine, when -online is set; runAll tees every job's
// events into its bus and main drains it after the sweep.
var (
	onlineBus *online.Bus
	onlineEng *online.Engine
)

// Job labels: every simulation the reproduction needs, built once and
// run concurrently. Figures, tables, and the extension analyses all
// read from this one batch, so e.g. the δ=50 ms trace is simulated
// once and shared by Figure 1, Figure 2, Table 3, and the §3
// prediction study.
const (
	jobRouteChange = "inria δ=50ms +route-change"
	jobAnomaly     = "inria δ=500ms +gateway-bursts"
	jobPacketPair  = "inria packet-pairs"
)

func deltaLabel(preset string, d time.Duration) string {
	return fmt.Sprintf("%s δ=%v", preset, d)
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")
	flag.Parse()
	// The online engine registers its /online debug handler, so it must
	// exist before Setup starts the -debug-addr server. The pipeline
	// monitor rides in the analyzer set, closing the online chain's
	// conservation ledger at the applied stage (internal/pipestat).
	if *onlineOn {
		mon := pipestat.NewMonitor(pipestat.Default.Chain("online"))
		onlineBus = online.NewBus()
		onlineEng = online.NewEngine(onlineBus, 0,
			append(online.DefaultAnalyzers(obs.Default, online.WithWindow(*onlineWin)), mon)...)
		online.RegisterDebug(onlineEng)
		obs.StatusSection("online", func() any {
			length, capacity := onlineEng.Queue()
			return map[string]any{"queue_len": length, "queue_cap": capacity, "dropped": onlineEng.Dropped()}
		})
	}
	pipestat.Default.Register()
	if _, err := tshistFlags.Setup(obs.Default, obsFlags.DebugAddr != ""); err != nil {
		log.Fatal(err)
	}
	if _, err := obsFlags.Setup(obs.Default); err != nil {
		log.Fatal(err)
	}

	dur := 10 * time.Minute
	longDur := 10 * time.Minute
	if *quick {
		dur, longDur = 2*time.Minute, 5*time.Minute
	}

	// A signal stops dispatching new jobs; running ones finish, the
	// manifest still captures the partial sweep, and the figures —
	// which would read nil traces — are skipped.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	traces, results, summary := runAll(ctx, dur, longDur)
	fmt.Printf("simulated %s\n", summary)
	if *manifest != "" {
		writeManifest(*manifest, results, summary)
	}
	if ctx.Err() != nil {
		fmt.Printf("interrupted: %d of %d jobs cancelled; figures skipped, partial manifest written\n",
			summary.Cancelled, summary.Jobs)
		return
	}
	if err := runner.FirstErr(results); err != nil {
		log.Fatal(err)
	}

	inria := func(d time.Duration) *core.Trace { return traces[deltaLabel("inria", d)] }
	tr50 := inria(50 * time.Millisecond)
	tr20 := inria(20 * time.Millisecond)
	tr100 := inria(100 * time.Millisecond)

	tables12()
	figure1(tr50)
	figure2(tr50)
	figure4(inria(500 * time.Millisecond))
	figure5(traces[deltaLabel("pitt", 8*time.Millisecond)])
	figure6(traces[deltaLabel("pitt", 50*time.Millisecond)])
	figures89(tr20, tr100)
	table3(traces)
	section5(tr100)
	section6(tr20)
	extensions(traces, dur)
}

// runAll builds every simulation job of the reproduction and executes
// the batch on the worker pool, returning traces keyed by job label
// plus the raw results and sweep summary for the run manifest. Job
// start/finish events stream to the structured logger as they happen.
func runAll(ctx context.Context, dur, longDur time.Duration) (map[string]*core.Trace, []runner.Result, runner.Summary) {
	inria := core.INRIAPreset()
	pitt := core.PittPreset()

	var jobs []runner.Job
	// The δ-sweep behind Figures 1–9 and Table 3. Runs at δ ≥ 200 ms
	// need the longer duration for enough samples.
	for _, d := range core.PaperDeltas {
		dd := dur
		if d >= 200*time.Millisecond {
			dd = longDur
		}
		jobs = append(jobs, runner.Job{
			Label:  deltaLabel("inria", d),
			Config: inria.Config(d, dd, 0),
		})
	}
	for _, d := range []time.Duration{8 * time.Millisecond, 50 * time.Millisecond} {
		jobs = append(jobs, runner.Job{
			Label:  deltaLabel("pitt", d),
			Config: pitt.Config(d, dur, 0),
		})
	}

	// The extension experiments: [21] route change, [22] periodic
	// gateway bursts, and the packet-pair capacity schedule.
	rc := inria.Config(50*time.Millisecond, dur, 0)
	rc.RouteChange = &core.RouteChange{At: dur / 2, Hop: 3, Shift: 15 * time.Millisecond}
	jobs = append(jobs, runner.Job{Label: jobRouteChange, Config: rc})

	an := inria.Config(500*time.Millisecond, 15*time.Minute, 0)
	an.Path.Hops[3].Buffer = 80
	an.Anomaly = &core.Anomaly{Period: 90 * time.Second, Burst: 80, Size: 512}
	jobs = append(jobs, runner.Job{Label: jobAnomaly, Config: an})

	pp := inria.Config(200*time.Millisecond, 0, 0)
	pp.ClockRes = 0
	pp.SendTimes = capacity.PairSchedule(1000, 200*time.Millisecond, time.Millisecond)
	jobs = append(jobs, runner.Job{Label: jobPacketPair, Config: pp})

	opts := []runner.Option{
		runner.Workers(*workers),
		runner.Metrics(obs.Default),
		runner.Progress(progressLine(len(jobs))),
	}
	if *traceDir != "" {
		opts = append(opts, runner.Traces(*traceDir))
	}
	if onlineBus != nil {
		// Produce stamps and counts each tapped event into the online
		// chain's ledger; the engine-side monitor closes the books.
		chain := pipestat.Default.Chain("online")
		chain.Dropped("bus", onlineBus.Dropped)
		opts = append(opts, runner.Sink(chain.Produce(onlineBus)))
	}
	closeRelay := func() error { return nil }
	if *relay != "" {
		sender, err := source.Dial(*relay)
		if err != nil {
			log.Fatal(err)
		}
		// The wire branch keeps its own books: every tapped event ends
		// up sent or dropped (sticky stream errors), never lost silently.
		sink, closer := source.Uplink(pipestat.Default.Chain("wire"), sender, false)
		opts = append(opts, runner.Sink(sink))
		closeRelay = closer
		slog.Info("relaying events", "to", *relay)
	}
	results, summary := runner.RunAll(ctx, *seed, jobs, opts...)
	if err := closeRelay(); err != nil {
		slog.Warn("relay stream incomplete", "err", err)
	}
	if onlineEng != nil {
		onlineBus.Close()
		onlineEng.Wait()
		if d := onlineEng.Dropped(); d > 0 {
			slog.Warn("online analysis sampled, not exact", "dropped", d)
		}
	}
	traces := make(map[string]*core.Trace, len(results))
	for _, r := range results {
		if r.Trace != nil {
			traces[r.Label] = r.Trace
		}
	}
	return traces, results, summary
}

// progressLine returns a Progress consumer that logs one line per
// job start and finish — the live view of the sweep.
func progressLine(total int) func(runner.Event) {
	done := 0
	return func(ev runner.Event) {
		switch ev.Kind {
		case runner.JobStart:
			slog.Info("job start",
				"job", fmt.Sprintf("%d/%d", ev.Index+1, total),
				"label", ev.Label, "seed", ev.Seed, "worker", ev.Worker)
		case runner.JobFinish:
			done++
			if ev.Err != nil {
				slog.Error("job failed",
					"done", fmt.Sprintf("%d/%d", done, total),
					"label", ev.Label, "err", ev.Err)
				return
			}
			slog.Info("job done",
				"done", fmt.Sprintf("%d/%d", done, total),
				"label", ev.Label, "seed", ev.Seed,
				"wall", ev.Wall.Round(time.Millisecond),
				"ulp", fmt.Sprintf("%.3f", ev.Stats.ULP),
				"lost", ev.Stats.Lost, "sent", ev.Stats.N)
		}
	}
}

// writeManifest records the run as a diffable JSON artifact: flags,
// presets, per-job seeds/wall/loss, and the metrics snapshot.
func writeManifest(path string, results []runner.Result, summary runner.Summary) {
	m := runner.NewManifest("experiments", *seed, results, summary)
	m.Flags = map[string]string{
		"quick":         strconv.FormatBool(*quick),
		"plots":         strconv.FormatBool(*plots),
		"workers":       strconv.Itoa(*workers),
		"trace_dir":     *traceDir,
		"online":        strconv.FormatBool(*onlineOn),
		"online_window": strconv.Itoa(*onlineWin),
		"relay":         *relay,
	}
	m.Presets = []string{"inria", "pitt"}
	snap := obs.Default.Snapshot()
	m.Metrics = &snap
	if err := m.Write(path); err != nil {
		log.Fatal(err)
	}
	slog.Info("run manifest written", "path", path,
		"jobs", len(m.Jobs), "metrics", len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms))
}

// extensions regenerates the companion results the paper points at:
// the §3 prediction study, the [21]/[22] diagnoses, the [29] ACK
// compression, and packet-pair capacity estimation.
func extensions(traces map[string]*core.Trace, dur time.Duration) {
	header("Extensions — the paper's companion results")

	// §3: AR prediction of queueing delays, on the shared δ=50 ms run.
	tr := traces[deltaLabel("inria", 50*time.Millisecond)]
	rtts := tr.RTTMillis()
	half := len(rtts) / 2
	if m, err := tsa.SelectAR(rtts[:half], 8); err == nil {
		evs := tsa.Compare(rtts[half:], 10, m, tsa.LastValue{}, tsa.EWMA{})
		fmt.Printf("§3 prediction: AR(%d) one-step MSE %.0f vs last-value %.0f vs EWMA %.0f (ms²)\n",
			m.Order(), evs[0].MSE, evs[1].MSE, evs[2].MSE)
	}

	// [21]: route change.
	trRC := traces[jobRouteChange]
	if shift, err := dynamics.DetectLevelShift(trRC, 0, 0); err == nil {
		fmt.Printf("[21] route change: injected +30 ms RTT at %v; detected %+.1f ms at t ≈ %v (%d reorderings)\n",
			dur/2, shift.ShiftMs(), shift.At.Round(time.Second), trRC.Reorderings())
	}

	// [22]: the every-90-seconds gateway burst.
	if per, err := dynamics.DetectPeriodicity(traces[jobAnomaly], 0); err == nil {
		fmt.Printf("[22] gateway bursts: injected every 90 s; detected every %v (autocorrelation %.2f)\n",
			per.Period.Round(time.Second), per.Correlation)
	}

	// [29]: ACK compression (the phenomenon probe compression is
	// named after). The closed-loop TCP sims use the tcp package
	// directly; they are not SimConfig jobs.
	dataSvc := time.Duration(512 * 8 * int64(time.Second) / 128_000)
	ackFrac := func(twoWay bool) float64 {
		sched := sim.NewScheduler()
		var f sim.Factory
		d := tcp.NewDumbbell(sched, 128_000, 20, 35*time.Millisecond)
		a := tcp.NewConn(sched, &f, "A", tcp.Options{Total: 1500})
		d.AttachForward(a)
		a.Start(0)
		if twoWay {
			b := tcp.NewConn(sched, &f, "B", tcp.Options{Total: 1500})
			d.AttachReverse(b)
			b.Start(0)
		}
		sched.Run(30 * time.Minute)
		return tcp.CompressionFraction(a.AckArrivalTimes(), dataSvc)
	}
	fmt.Printf("[29] ACK compression: %.1f%% of ACK gaps compressed one-way vs %.1f%% under two-way traffic\n",
		100*ackFrac(false), 100*ackFrac(true))

	// Packet-pair capacity estimation vs the phase-plot method.
	if est, err := capacity.FromPairs(traces[jobPacketPair], 0); err == nil {
		fmt.Printf("packet-pair: μ ≈ %.0f b/s from %d pairs (link: 128000)\n",
			est.BottleneckBps, est.Pairs)
	}
}

func header(title string) {
	fmt.Printf("\n## %s\n\n", title)
}

func tables12() {
	header("Tables 1 & 2 — measured routes")
	p1 := route.INRIAToUMd()
	fmt.Printf("Table 1, %s (paper: 10 hops, 128 kb/s transatlantic bottleneck at hop 4):\n%s", p1, p1.Traceroute())
	p2 := route.UMdToPitt()
	fmt.Printf("Table 2, %s (paper: 14 hops, bottleneck \"much higher than 128 kb/s\"):\n%s", p2, p2.Traceroute())
}

func figure1(tr *core.Trace) {
	header("Figure 1 — time series of rtt_n, δ=50 ms, n ∈ [0, 800]")
	first := tr.Slice(0, 800)
	s := loss.AnalyzeTrace(first)
	min, _ := first.MinRTT()
	fmt.Printf("paper:    many losses (9%% over the run), RTTs from ≈140 ms up past 400 ms\n")
	fmt.Printf("measured: loss %.1f%%, min RTT %v, max RTT %v\n",
		100*s.ULP, min, maxRTT(first))
	if *plots {
		var ys []float64
		for _, rtt := range first.RTTSeries() {
			ys = append(ys, float64(rtt)/1e6)
		}
		fmt.Print(plot.TimeSeries(ys, 100, 24))
	}
}

func figure2(tr *core.Trace) {
	header("Figure 2 — phase plot, δ=50 ms (INRIA–UMd)")
	first := tr.Slice(0, 800)
	est, err := phase.EstimateBottleneck(first, 0)
	fmt.Printf("paper:    D ≈ 140 ms; compression-line x-intercept ≈ 48 ms ⇒ μ ≈ 130 kb/s (link: 128 kb/s)\n")
	if err != nil {
		fmt.Printf("measured: %v (D≈%.1f ms)\n", err, est.FixedDelayMs)
	} else {
		fmt.Printf("measured: D ≈ %.1f ms; intercept ≈ %.1f ms ⇒ μ ≈ %.0f kb/s\n",
			est.FixedDelayMs, est.InterceptMs, est.BottleneckBps/1000)
	}
	phaseFigure(first, est, err)
}

func figure4(tr *core.Trace) {
	header("Figure 4 — phase plot, δ=500 ms (INRIA–UMd)")
	first := tr.Slice(0, 800)
	p := phase.New(first)
	est, err := phase.EstimateBottleneck(first, 0)
	onLine := p.OnLine(-490, 5)
	fmt.Printf("paper:    only two points on the line rtt_n+1 = rtt_n − 490; scatter around the diagonal\n")
	fmt.Printf("measured: %d points near that line; %.0f%% of points within ±50 ms of the diagonal; compression analysis: %v\n",
		onLine, 100*p.DiagonalFraction(50), errOrOK(err))
	phaseFigure(first, est, err)
}

func figure5(tr *core.Trace) {
	header("Figure 5 — phase plot, δ=8 ms (UMd–Pittsburgh)")
	first := tr.Slice(0, 800)
	p := phase.New(first)
	est, err := phase.EstimateBottleneck(first, 0)
	fmt.Printf("paper:    compression visible near rtt_n+1 = rtt_n − 8; 3 ms clock bands the points\n")
	fmt.Printf("measured: %d points within ±1.5 ms of rtt_n+1 = rtt_n − 8 (of %d); compression analysis: %v\n",
		p.OnLine(-8, 1.5), len(p.Points), errOrOK(err))
	if err == nil && est.ResolutionLimited {
		fmt.Printf("          service time below the 3 ms clock tick ⇒ only a bound: μ ≥ %.2f Mb/s (the paper likewise does not name this path's bottleneck)\n",
			est.BottleneckBps/1e6)
	} else if err == nil {
		fmt.Printf("          estimated μ ≈ %.1f Mb/s (configured bottleneck 10 Mb/s)\n", est.BottleneckBps/1e6)
	}
	phaseFigure(first, est, err)
}

func figure6(tr *core.Trace) {
	header("Figure 6 — phase plot, δ=50 ms (UMd–Pittsburgh)")
	first := tr.Slice(0, 800)
	p := phase.New(first)
	est, err := phase.EstimateBottleneck(first, 40)
	fmt.Printf("paper:    points scatter around the diagonal; regular 3 ms spacing from the source clock\n")
	fmt.Printf("measured: %.0f%% of points within ±5 ms of the diagonal; compression analysis: %v\n",
		100*p.DiagonalFraction(5), errOrOK(err))
	phaseFigure(first, est, err)
}

func figures89(tr20, tr100 *core.Trace) {
	header("Figures 8 & 9 — distribution of w_n+1 − w_n + δ")
	mu := float64(tr20.BottleneckBps)
	a20, err := workload.Analyze(tr20, mu, 1.5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("paper (δ=20 ms):  peaks at P/μ≈4.5 ms, δ=20 ms, ≈35 ms ⇒ b_n = 128·35 − 576 = 3904 bits ≈ 488 B (one FTP packet), then two FTP packets, ...\n")
	fmt.Printf("measured (δ=20 ms): %v\n", a20)
	if bulk, err := a20.InferredBulkBytes(); err == nil {
		fmt.Printf("                  inferred bulk packet ≈ %.0f bytes (configured FTP packets: 512 B)\n", bulk)
	}
	f20 := workload.CompressionFraction(tr20, mu, 3)
	f100 := workload.CompressionFraction(tr100, mu, 3)
	fmt.Printf("paper (δ=100 ms): same structure, but the leftmost (compression) peak much smaller\n")
	fmt.Printf("measured:         compression fraction %.1f%% at δ=20 ms vs %.1f%% at δ=100 ms\n", 100*f20, 100*f100)
	if *plots {
		fmt.Println("\nFigure 8 (δ=20 ms):")
		fmt.Print(plot.Histogram(workload.Distribution(tr20, 1.5), 48))
		fmt.Println("\nFigure 9 (δ=100 ms):")
		fmt.Print(plot.Histogram(workload.Distribution(tr100, 3), 48))
	}
}

func table3(traces map[string]*core.Trace) {
	header("Table 3 — ulp, clp, plg vs δ")
	type paperRow struct{ ulp, clp, plg float64 }
	paper := map[time.Duration]paperRow{
		8 * time.Millisecond:   {0.23, 0.60, 2.5},
		20 * time.Millisecond:  {0.16, 0.42, 1.7},
		50 * time.Millisecond:  {0.12, 0.27, 1.3},
		100 * time.Millisecond: {0.10, 0.18, 1.2},
		200 * time.Millisecond: {0.11, 0.18, 1.2},
		500 * time.Millisecond: {0.10, 0.09, 1.1},
	}
	fmt.Printf("(the paper prints ulp=0.97 at δ=500 ms; its text says ulp stabilizes around 10%%, so that entry is a typo — we list 0.10)\n\n")
	fmt.Printf("%8s | %6s %6s %6s | %6s %6s %6s\n", "δ", "ulp", "clp", "plg", "ulp*", "clp*", "plg*")
	fmt.Printf("%8s | %20s | %20s\n", "", "paper", "measured")
	for _, d := range core.PaperDeltas {
		tr := traces[deltaLabel("inria", d)]
		s := loss.AnalyzeTrace(tr)
		pr := paper[d]
		fmt.Printf("%8v | %6.2f %6.2f %6.1f | %6.2f %6.2f %6.1f\n",
			d, pr.ulp, pr.clp, pr.plg, s.ULP, s.CLP, s.PLG)
	}
}

func section5(tr100 *core.Trace) {
	header("Section 5 — error-control implications")
	lost := tr100.LossIndicator()
	s := loss.Analyze(lost)
	rep := fec.Repetition(lost)
	blk := fec.BlockFEC(lost, 5, 4)
	arq := fec.ARQ(lost, *seed)
	fmt.Printf("paper:    loss gap stays close to 1 even for small δ ⇒ FEC (or repeating the previous packet) adequate for audio\n")
	fmt.Printf("measured (δ=100 ms): plg %.2f; repetition residual loss %.4f (raw %.4f, random baseline %.4f)\n",
		s.PLG, rep.ResidualLossRate, s.ULP, fec.RandomResidual(s.ULP))
	fmt.Printf("          block FEC(5,4) residual %.4f; ARQ mean delay %.2f RTT (mean attempts %.2f)\n",
		blk.ResidualLossRate, arq.MeanDelayRTT, arq.MeanAttempts)
	d := fec.PlayoutDelay(tr100.RTTMillis(), 0.01)
	fmt.Printf("          playout buffer for 1%% late loss: %.1f ms beyond minimum RTT\n", d)
}

func section6(tr20 *core.Trace) {
	header("Section 6 — batch-deterministic analytic model vs measurement")
	// Derive the batch-size law from the measurements via eq. 6,
	// then run the analytic model and compare waiting-time spreads —
	// the paper reports "good correlation".
	mu := float64(tr20.BottleneckBps)
	bits := workload.EstimateBits(tr20, mu)
	if len(bits) == 0 {
		fmt.Println("no data")
		return
	}
	// Discretize the measured b_n into FTP-packet multiples.
	pmf := map[float64]float64{}
	for _, b := range bits {
		k := float64(int(b/4096 + 0.5))
		pmf[k*4096] += 1 / float64(len(bits))
	}
	m := &queue.BatchDeterministic{
		Mu:    mu,
		Delta: tr20.Delta.Seconds(),
		P:     float64(tr20.WireSize) * 8,
		Batch: nil, // StationaryWait uses the pmf directly
	}
	pi := m.StationaryWait(0.002, 0.6, pmf, 8, 400)
	meanW := 0.0
	for i, p := range pi {
		meanW += float64(i) * 0.002 * p
	}
	min, _ := tr20.MinRTT()
	minMs := float64(min) / float64(time.Millisecond)
	measured := 0.0
	for _, ms := range tr20.RTTMillis() {
		measured += ms - minMs
	}
	measured /= float64(tr20.Received()) // mean queueing delay above minimum, ms
	fmt.Printf("paper:    \"analytical results show good correlation with our experimental data\"\n")
	fmt.Printf("measured: model stationary mean wait %.1f ms vs measured mean excess delay %.1f ms (δ=20 ms)\n",
		meanW*1000, measured)
}

func phaseFigure(tr *core.Trace, est phase.Estimate, estErr error) {
	if !*plots {
		return
	}
	p := phase.New(tr)
	var xs, ys []float64
	for _, pt := range p.Points {
		xs = append(xs, pt.X)
		ys = append(ys, pt.Y)
	}
	if len(xs) == 0 {
		return
	}
	lines := []plot.RefLine{{Slope: 1, Intercept: 0, Ch: '\\'}}
	if estErr == nil {
		lines = append(lines, plot.RefLine{Slope: 1, Intercept: -est.InterceptMs, Ch: '-'})
	}
	fmt.Print(plot.Scatter(xs, ys, 80, 24, lines...))
}

func errOrOK(err error) string {
	if err == nil {
		return "compression line found"
	}
	if errors.Is(err, phase.ErrNoCompression) {
		return "no compression line (as the paper observes)"
	}
	return err.Error()
}

func maxRTT(tr *core.Trace) time.Duration {
	var m time.Duration
	for _, s := range tr.Samples {
		if !s.Lost && s.RTT > m {
			m = s.RTT
		}
	}
	return m
}
