package capacity_test

import (
	"fmt"
	"log"
	"time"

	"netprobe/internal/capacity"
	"netprobe/internal/core"
	"netprobe/internal/phase"
	"netprobe/internal/route"
)

// mysteryPath builds a 6-hop path whose middle link is the bottleneck.
func mysteryPath(name string, bottleneckBps int64) route.Path {
	ms := func(d float64) time.Duration { return time.Duration(d * float64(time.Millisecond)) }
	return route.Path{
		Name: name,
		Hops: []route.Hop{
			{Name: "src-lan", RateBps: 10_000_000, Prop: ms(0.5), Buffer: 64},
			{Name: "src-gw", RateBps: 2_048_000, Prop: ms(2), Buffer: 40},
			{Name: "long-haul", RateBps: bottleneckBps, Prop: ms(30), Buffer: 20},
			{Name: "backbone", RateBps: 1_544_000, Prop: ms(5), Buffer: 40},
			{Name: "dst-gw", RateBps: 1_544_000, Prop: ms(2), Buffer: 40},
			{Name: "dst-lan", RateBps: 10_000_000, Prop: ms(0.5), Buffer: 64},
		},
	}
}

// ExampleFromPairs treats a path's bandwidth as unknown and recovers
// it from probe round-trip times alone, the way Section 4 of the paper
// reads 128 kb/s off the Figure 2 phase plot. It sweeps "mystery"
// paths with different bottlenecks, picks a probe interval for each,
// and compares the phase-plot estimate and the packet-pair estimate
// against the truth.
func ExampleFromPairs() {
	fmt.Printf("%-10s %12s %14s %8s %14s %8s\n",
		"path", "true μ", "phase-plot μ", "error", "packet-pair μ", "error")
	for _, tc := range []struct {
		bps   int64
		delta time.Duration
	}{
		{64_000, 50 * time.Millisecond},
		{128_000, 20 * time.Millisecond},
		{256_000, 10 * time.Millisecond},
		{512_000, 5 * time.Millisecond},
	} {
		p := mysteryPath(fmt.Sprintf("%dk", tc.bps/1000), tc.bps)
		// Cross traffic scaled to ≈60% of the bottleneck: bulk
		// windows of 2×512-byte packets, ACK-clocked.
		perSource := 2 * 512 * 8 / 0.30 // b/s at idle mean 0.3 s
		n := int(0.6 * float64(tc.bps) / perSource)
		if n < 1 {
			n = 1
		}
		cross := core.CrossConfig{
			NBulk:           n,
			BulkSize:        512,
			BulkAccessBps:   2_048_000,
			BulkIdleMean:    0.30,
			BulkTrainMean:   2,
			InteractiveSize: 64,
			InteractiveGap:  200 * time.Millisecond,
		}
		tr, err := core.RunSim(core.SimConfig{
			Path:     p,
			Delta:    tc.delta,
			Duration: 4 * time.Minute,
			Seed:     7,
			Cross:    &cross,
		})
		if err != nil {
			log.Fatal(err)
		}
		est, err := phase.EstimateBottleneck(tr, 0)
		if err != nil {
			fmt.Printf("%-10s %12d %14s %8s\n", p.Name, tc.bps, "n/a", err)
			continue
		}
		errPct := 100 * (est.BottleneckBps - float64(tc.bps)) / float64(tc.bps)

		// Second opinion: the packet-pair method, a direct probe of
		// the same P/μ spacing the phase plot reads statistically.
		pairTr, err := core.RunSim(core.SimConfig{
			Path:      p,
			Delta:     200 * time.Millisecond,
			SendTimes: capacity.PairSchedule(600, 200*time.Millisecond, time.Millisecond/2),
			Seed:      7,
			Cross:     &cross,
		})
		if err != nil {
			log.Fatal(err)
		}
		pairEst, err := capacity.FromPairs(pairTr, 0)
		if err != nil {
			log.Fatal(err)
		}
		pairErr := 100 * (pairEst.BottleneckBps - float64(tc.bps)) / float64(tc.bps)
		fmt.Printf("%-10s %12d %14.0f %7.1f%% %14.0f %7.1f%%\n",
			p.Name, tc.bps, est.BottleneckBps, errPct, pairEst.BottleneckBps, pairErr)
	}
	fmt.Println("\n(phase-plot: δ − P/μ read off the compression line; packet-pair: modal return spacing of back-to-back probes)")
	// Output:
	// path             true μ   phase-plot μ    error  packet-pair μ    error
	// 64k               64000          63989    -0.0%          64000     0.0%
	// 128k             128000         127915    -0.1%         128000     0.0%
	// 256k             256000         255402    -0.2%         256000     0.0%
	// 512k             512000         509694    -0.5%         512000     0.0%
	//
	// (phase-plot: δ − P/μ read off the compression line; packet-pair: modal return spacing of back-to-back probes)
}
