package runner_test

import (
	"context"
	"fmt"
	"log"
	"time"

	"netprobe/internal/core"
	"netprobe/internal/queue"
	"netprobe/internal/runner"
	"netprobe/internal/stats"
)

// ExampleRun_dimensioning sweeps the transatlantic bottleneck's buffer
// size, one of the motivations the paper opens with: delay/loss
// behavior matters "for the dimensioning of buffers and link
// capacity". Each configuration is an independent job run
// concurrently; the example measures probe loss and delay on each,
// compares the loss against the M/M/1/K blocking formula, and reads
// off the loss-versus-delay trade-off an operator would use to size
// the queue.
func ExampleRun_dimensioning() {
	buffers := []int{4, 8, 16, 32, 64}
	preset := core.INRIAPreset()
	var jobs []runner.Job
	for _, k := range buffers {
		cfg := preset.Config(50*time.Millisecond, 5*time.Minute, 0)
		for i := range cfg.Path.Hops {
			cfg.Path.Hops[i].LossProb = 0 // isolate overflow loss
		}
		cfg.Path.Hops[3].Buffer = k
		jobs = append(jobs, runner.Job{
			Label:  fmt.Sprintf("K=%d", k),
			Config: cfg,
		})
	}
	results := runner.Run(context.Background(), 12, jobs)
	if err := runner.FirstErr(results); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%8s %10s %12s %12s %14s\n",
		"buffer", "loss", "median RTT", "p99 RTT", "M/M/1/K loss")
	for i, r := range results {
		k := buffers[i]
		rtts := r.Trace.RTTMillis()
		med := stats.Quantile(rtts, 0.5)
		p99 := stats.Quantile(rtts, 0.99)
		// Reference: M/M/1/K at the measured total utilization
		// (probes ≈9% + cross traffic ≈60%).
		ref := queue.MM1KLossProbability(0.70, k+1)
		fmt.Printf("%8d %9.2f%% %9.1f ms %9.1f ms %13.2f%%\n",
			k, 100*r.Trace.LossRate(), med, p99, 100*ref)
	}
	fmt.Println("\nlarger buffers trade loss for delay: overflow loss falls with K while")
	fmt.Println("the delay tail grows with the extra queueing room. Note how much more")
	fmt.Println("slowly the measured loss decays than the Poisson (M/M/1/K) formula")
	fmt.Println("predicts: the bulk-transfer bursts arrive together, so buffer provisioning")
	fmt.Println("based on Poisson models badly undersizes the queue — the burstiness")
	fmt.Println("the paper's probes are designed to expose.")
	// Output:
	//   buffer       loss   median RTT      p99 RTT   M/M/1/K loss
	//        4     10.87%     144.5 ms     261.7 ms          5.71%
	//        8      6.10%     164.1 ms     342.5 ms          1.25%
	//       16      2.92%     203.1 ms     480.5 ms          0.07%
	//       32      0.62%     218.8 ms     664.1 ms          0.00%
	//       64      0.05%     234.4 ms     898.4 ms          0.00%
	//
	// larger buffers trade loss for delay: overflow loss falls with K while
	// the delay tail grows with the extra queueing room. Note how much more
	// slowly the measured loss decays than the Poisson (M/M/1/K) formula
	// predicts: the bulk-transfer bursts arrive together, so buffer provisioning
	// based on Poisson models badly undersizes the queue — the burstiness
	// the paper's probes are designed to expose.
}

// ExampleRun_diurnal compresses the diurnal-cycle experiment of the
// related work the paper builds on ([19], Mukherjee) to simulation
// scale. [19] sent groups of probes once a minute for days and found,
// by spectral analysis, "a clear diurnal cycle, suggesting the
// presence of a base congestion level which changes slowly with
// time". Here the Internet stream's intensity swings sinusoidally with
// an 8-minute "day" (core.SimConfig.Modulated), probes sample the path
// once a second, per-group delay means are computed as in [19], and
// the periodogram of that series recovers the cycle. Several
// independent "weeks", one per job, run concurrently, and every one
// must recover the injected period.
func ExampleRun_diurnal() {
	const (
		day      = 8 * time.Minute // the compressed "day"
		duration = 40 * time.Minute
		delta    = time.Second
		group    = 10 // probes per averaging group, as in [19]
		runs     = 4  // independent replications
	)

	preset := core.INRIAPreset()
	var jobs []runner.Job
	for i := 0; i < runs; i++ {
		cfg := preset.Config(delta, duration, 0)
		cfg.Cross = nil  // the modulated stream is the whole load
		cfg.ClockRes = 0 // exact clock, as in the [19] analysis
		for h := range cfg.Path.Hops {
			cfg.Path.Hops[h].LossProb = 0
		}
		cfg.Modulated = &core.ModulatedCross{
			Size: 512, Gap: 53 * time.Millisecond,
			Depth: 0.6, Period: day,
		}
		jobs = append(jobs, runner.Job{
			Label:  fmt.Sprintf("week %d", i+1),
			Config: cfg,
		})
	}
	results := runner.Run(context.Background(), 3, jobs)
	if err := runner.FirstErr(results); err != nil {
		log.Fatal(err)
	}

	samplePeriod := time.Duration(group) * delta
	var minAll, maxAll float64
	for i, r := range results {
		means := core.GroupMeans(r.Trace, group)
		freq, power := stats.DominantFrequency(means)
		if freq == 0 {
			log.Fatalf("%s: no dominant frequency found", r.Label)
		}
		period := time.Duration(float64(samplePeriod) / freq)
		fmt.Printf("%s: %d probes, %d group means; dominant spectral period %v (power %.0f)\n",
			r.Label, r.Trace.Len(), len(means), period.Round(10*time.Second), power)
		sum, err := stats.Summarize(means)
		if err != nil {
			log.Fatal(err)
		}
		if i == 0 || sum.Min < minAll {
			minAll = sum.Min
		}
		if i == 0 || sum.Max > maxAll {
			maxAll = sum.Max
		}
	}
	fmt.Printf("\ninjected congestion cycle: period %v — recovered by every replication\n", day)
	fmt.Printf("group-mean delay across runs: min %.1f ms, max %.1f ms — the swing is the \"base congestion level which changes slowly with time\" of [19]\n",
		minAll, maxAll)
	// Output:
	// week 1: 2400 probes, 240 group means; dominant spectral period 8m30s (power 410711)
	// week 2: 2400 probes, 240 group means; dominant spectral period 8m30s (power 342966)
	// week 3: 2400 probes, 240 group means; dominant spectral period 8m30s (power 310131)
	// week 4: 2400 probes, 240 group means; dominant spectral period 8m30s (power 341893)
	//
	// injected congestion cycle: period 8m0s — recovered by every replication
	// group-mean delay across runs: min 141.0 ms, max 632.3 ms — the swing is the "base congestion level which changes slowly with time" of [19]
}
