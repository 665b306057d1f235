// End-to-end integration tests: the full pipeline a user of this
// library walks — collect (simulated and real-UDP), persist, reload,
// analyze — plus cross-validation of the simulator against queueing
// theory.
package netprobe

import (
	"math"
	"math/rand"
	"path/filepath"
	"testing"
	"time"

	"netprobe/internal/core"
	"netprobe/internal/fec"
	"netprobe/internal/loss"
	"netprobe/internal/netdyn"
	"netprobe/internal/phase"
	"netprobe/internal/queue"
	"netprobe/internal/route"
	"netprobe/internal/sim"
	"netprobe/internal/stats"
	"netprobe/internal/trace"
	"netprobe/internal/traffic"
	"netprobe/internal/workload"
)

// TestFullPipelineSimulated: simulate → save CSV → reload → all four
// analyses agree with the configured ground truth.
func TestFullPipelineSimulated(t *testing.T) {
	tr, err := core.INRIAUMd(20*time.Millisecond, 3*time.Minute, 2026)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.csv")
	if err := trace.Save(path, tr); err != nil {
		t.Fatal(err)
	}
	got, err := trace.Load(path)
	if err != nil {
		t.Fatal(err)
	}

	// Phase analysis finds the transatlantic link.
	est, err := phase.EstimateBottleneck(got, 0)
	if err != nil {
		t.Fatal(err)
	}
	if est.BottleneckBps < 90_000 || est.BottleneckBps > 170_000 {
		t.Errorf("bottleneck estimate %v", est)
	}
	if est.FixedDelayMs < 130 || est.FixedDelayMs > 150 {
		t.Errorf("fixed delay estimate %v", est.FixedDelayMs)
	}

	// Workload analysis finds the FTP packets.
	a, err := workload.Analyze(got, float64(got.BottleneckBps), 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if a.CompressionPeak == nil || a.IdlePeak == nil {
		t.Errorf("workload peaks missing: %v", a)
	}

	// Loss analysis sees near-random moderate loss.
	ls := loss.AnalyzeTrace(got)
	if ls.ULP < 0.03 || ls.ULP > 0.30 {
		t.Errorf("loss %v", ls)
	}
	if ls.CLP+0.05 < ls.ULP {
		t.Errorf("clp < ulp: %v", ls)
	}

	// FEC evaluation is coherent: repetition cannot do worse than raw.
	rep := fec.Repetition(got.LossIndicator())
	if rep.ResidualLossRate > ls.ULP {
		t.Errorf("repetition residual %v above raw %v", rep.ResidualLossRate, ls.ULP)
	}
}

// TestFullPipelineRealUDP: probe a real loopback echo server with an
// injected loss pattern and run the same analyses.
func TestFullPipelineRealUDP(t *testing.T) {
	e, err := netdyn.NewEchoer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.SetDropper(func(seq uint32) bool { return seq%10 == 3 })
	tr, err := netdyn.Probe(netdyn.ProbeConfig{
		Target: e.Addr().String(),
		Delta:  2 * time.Millisecond,
		Count:  500,
		Drain:  time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "real.csv")
	if err := trace.Save(path, tr); err != nil {
		t.Fatal(err)
	}
	got, err := trace.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	ls := loss.AnalyzeTrace(got)
	if math.Abs(ls.ULP-0.1) > 0.04 {
		t.Errorf("ulp = %v, want ≈0.1", ls.ULP)
	}
	// The injected pattern is isolated losses: plg ≈ 1.
	if !ls.IsEssentiallyRandom(0.2) {
		t.Errorf("pattern should be loss-gap ≈ 1: %v", ls)
	}
}

// TestSimulatorMatchesMD1 validates the discrete-event engine against
// the Pollaczek–Khinchine mean-wait formula for an M/D/1 queue.
func TestSimulatorMatchesMD1(t *testing.T) {
	s := sim.NewScheduler()
	var f sim.Factory
	var totalWait time.Duration
	n := 0
	sink := sim.NewSink(s, func(pkt *sim.Packet, at time.Duration) {
		// Wait = departure − arrival − service.
		svc := time.Duration(int64(pkt.Size) * 8 * int64(time.Second) / 1_000_000)
		totalWait += at - pkt.SentAt - svc
		n++
	})
	q := sim.NewQueue(s, "md1", 1_000_000, 1<<20, sink)
	// λ chosen for ρ = 0.7: service = 1 ms (125 B at 1 Mb/s),
	// inter-arrival mean = 1/0.7 ms.
	horizon := 2000 * time.Second
	msf := float64(time.Millisecond)
	gap := time.Duration(msf / 0.7)
	traffic.NewPoisson(s, &f, "load", 125, gap, horizon, 11, q).Start()
	s.Run(horizon + time.Minute)
	got := totalWait.Seconds() / float64(n)
	want := queue.MD1MeanWait(700, 0.001)
	if math.Abs(got-want) > 0.05*want {
		t.Fatalf("simulated M/D/1 wait %v s, formula %v s (n=%d)", got, want, n)
	}
}

// TestSimulatorMatchesMM1KLoss validates finite-buffer drops against
// the M/M/1/K blocking formula.
func TestSimulatorMatchesMM1KLoss(t *testing.T) {
	// Exponential packet sizes approximate exponential service.
	s := sim.NewScheduler()
	var f sim.Factory
	sink := sim.NewSink(s, nil)
	const k = 5 // 1 in service + 4 waiting
	q := sim.NewQueue(s, "mm1k", 1_000_000, k-1, sink)
	sizeDist := traffic.Exp(125) // mean 125 B ⇒ mean service 1 ms
	horizon := 3000 * time.Second
	// Hand-rolled Poisson arrivals with exponential sizes (the stock
	// generators use fixed sizes).
	rnd := rand.New(rand.NewSource(13))
	i := 0
	var arrive func()
	arrive = func() {
		size := int(sizeDist.Sample(rnd))
		if size < 1 {
			size = 1
		}
		pkt := f.New("load", i, size, s.Now())
		i++
		q.Receive(pkt)
		gap := time.Duration(rnd.ExpFloat64() * float64(time.Millisecond) / 0.8)
		if s.Now()+gap < horizon {
			s.After(gap, arrive)
		}
	}
	s.At(0, arrive)
	s.Run(horizon + time.Minute)
	st := q.Stats(s.Now())
	got := float64(st.Dropped) / float64(st.Arrived)
	want := queue.MM1KLossProbability(0.8, k)
	if math.Abs(got-want) > 0.25*want {
		t.Fatalf("simulated M/M/1/%d loss %v, formula %v (arrived %d)", k, got, want, st.Arrived)
	}
}

// TestRapidQueueFluctuations verifies the abstract's observation that
// queueing delays fluctuate rapidly over small intervals: the
// bottleneck backlog sampled every 10 ms swings by many packets, and
// its variance-time curve decays much slower than the 1/m of
// uncorrelated noise (the load is bursty across time scales).
func TestRapidQueueFluctuations(t *testing.T) {
	s := sim.NewScheduler()
	var f sim.Factory
	sink := sim.NewSink(s, nil)
	q := sim.NewQueue(s, "bottleneck", 128_000, 64, sink)
	horizon := 10 * time.Minute
	for i := 0; i < 3; i++ {
		traffic.NewBulk(s, &f, "ftp", 512, 1_544_000,
			traffic.Exp(0.3), traffic.Geometric(2), horizon, int64(i+1), q).Start()
	}
	traffic.NewPoisson(s, &f, "telnet", 64, 40*time.Millisecond, horizon, 9, q).Start()
	mon := sim.NewMonitor(s, q, 10*time.Millisecond, horizon)
	mon.Start()
	s.Run(horizon)

	xs := mon.SamplesFloat()
	sum, err := stats.Summarize(xs)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Max < 4 {
		t.Fatalf("backlog never exceeded %v packets; no fluctuations to speak of", sum.Max)
	}
	vt := stats.VarianceTime(xs, []int{1, 100})
	ratio := vt[100] / vt[1]
	if ratio < 3.0/100 {
		t.Fatalf("backlog decorrelates like white noise (ratio %v); the load should be bursty", ratio)
	}
	// And the series is strongly autocorrelated at one-sample lag:
	// queues drain gradually, they do not jump independently.
	acf := stats.Autocorrelation(xs, 1)
	if acf[1] < 0.5 {
		t.Fatalf("lag-1 autocorrelation %v, want high", acf[1])
	}
}

// TestDiurnalCycleDetected compresses the [19] experiment: a slowly
// breathing background load leaves its period in the spectrum of
// per-group delay means.
func TestDiurnalCycleDetected(t *testing.T) {
	const (
		day      = 8 * time.Minute
		duration = 40 * time.Minute
		delta    = time.Second
		group    = 10
	)
	sched := sim.NewScheduler()
	var factory sim.Factory
	p := route.INRIAToUMd()
	for i := range p.Hops {
		p.Hops[i].LossProb = 0
	}
	count := int(duration / delta)
	tr := &core.Trace{
		Name: "diurnal", Delta: delta, PayloadSize: 32, WireSize: 72,
		Samples: make([]core.Sample, count),
	}
	built := route.Build(sched, p, route.BuildOptions{
		Seed: 3,
		Deliver: func(pkt *sim.Packet, at time.Duration) {
			if !pkt.Probe || pkt.Seq >= count {
				return
			}
			s := &tr.Samples[pkt.Seq]
			s.Recv, s.RTT, s.Lost = at, at-s.Sent, false
		},
	})
	traffic.NewModulated(sched, &factory, "base", 512, 53*time.Millisecond,
		0.6, day, duration+time.Minute, 7, built.BottleneckForward()).Start()
	src := sim.NewPeriodicSource(sched, &factory, "probe", 72, delta, count, 0, built.Head)
	src.OnSend(func(seq int, at time.Duration) {
		tr.Samples[seq] = core.Sample{Seq: seq, Sent: at, Lost: true}
	})
	src.Start()
	sched.Run(duration + time.Minute)

	means := core.GroupMeans(tr, group)
	freq, _ := stats.DominantFrequency(means)
	if freq == 0 {
		t.Fatal("no dominant frequency")
	}
	period := time.Duration(float64(group) * float64(delta) / freq)
	if period < 6*time.Minute || period > 11*time.Minute {
		t.Fatalf("detected period %v, want ≈%v", period, day)
	}
}
