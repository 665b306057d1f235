package netprobe_test

import (
	"fmt"
	"log"
	"time"

	"netprobe/internal/core"
	"netprobe/internal/loss"
	"netprobe/internal/phase"
	"netprobe/internal/plot"
)

// Example simulates the paper's canonical experiment — probing the
// INRIA → University of Maryland path at δ = 50 ms — and runs the
// Section 4/5 analysis on the result: loss statistics, bottleneck
// estimation, and the phase plot.
func Example() {
	// 1. Collect a trace: 2 simulated minutes of 32-byte UDP probes
	//    every 50 ms over the Table 1 path, with the default
	//    bulk+interactive cross traffic and the DECstation clock.
	tr, err := core.INRIAUMd(50*time.Millisecond, 2*time.Minute, 1993)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(tr)

	// 2. Loss analysis (Section 5).
	ls := loss.AnalyzeTrace(tr)
	fmt.Printf("loss: %s\n", ls)
	fmt.Printf("essentially random? %v\n\n", ls.IsEssentiallyRandom(0.45))

	// 3. Phase-plot analysis (Section 4): recover the fixed delay D
	//    and the bottleneck bandwidth μ from the compression line.
	est, err := phase.EstimateBottleneck(tr, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("phase-plot analysis: %s\n", est)
	fmt.Printf("true bottleneck: %d b/s\n\n", tr.BottleneckBps)

	// 4. Render the phase plot of the first 800 probes (Figure 2).
	p := phase.New(tr.Slice(0, 800))
	var xs, ys []float64
	for _, pt := range p.Points {
		xs = append(xs, pt.X)
		ys = append(ys, pt.Y)
	}
	fmt.Println("phase plot (x = rtt_n, y = rtt_n+1, ms); '-' marks the compression line:")
	fmt.Print(plot.Scatter(xs, ys, 72, 24,
		plot.RefLine{Slope: 1, Intercept: 0, Ch: '\\'},
		plot.RefLine{Slope: 1, Intercept: -est.InterceptMs, Ch: '-'},
	))
	// Output:
	// INRIA-UMd δ=50ms: 2400 probes, δ=50ms, loss 9.9%
	// loss: ulp=0.10 clp=0.14 plg=1.2 (n=2400, runs=204, mean run 1.17)
	// essentially random? true
	//
	// phase-plot analysis: D≈140.6 ms, intercept≈44.9 ms, P/μ≈5.13 ms, μ≈112246 b/s (475 points, 24.3% of plot)
	// true bottleneck: 128000 b/s
	//
	// phase plot (x = rtt_n, y = rtt_n+1, ms); '-' marks the compression line:
	//        543.0 ┌────────────────────────────────────────────────────────────────────────┐
	//              │                                                                    \\\ │
	//              │         .                                        .              \\\    │
	//              │                                                              \\\    .--│
	//              │                           .                               \\\.    ---  │
	//              │                                                        \\\..   ---     │
	//              │                                        .  .      .   \\.    ---        │
	//              │                              . .         .        \\\.   ---           │
	//              │                             .    .             \\\    ---              │
	//              │                               .       .     \\\    ---                 │
	//              │                              ..   .  .   \\\.   ---                    │
	//              │ .                 ..                  \\\    ---                       │
	//              │                      .   .. . .   .\\\    ---                          │
	//        337.9 │         .     .     . .   . ..  \\\    ---                             │
	//              │ ..    .   .   . .   .. .... .\\\.  .---.                               │
	//              │ ..               . .  ..  \\\. . ---                                   │
	//              │ ...          . . . .. .\\\  ..---                                      │
	//              │ .     .   ...  .   .\\\  ...--                                         │
	//              │ ..     .    ...  \\\ .. .---                                           │
	//              │ .  .....  ..  \\\. ...---                                              │
	//              │ ..  . . .  \\\ . ..---                                                 │
	//              │ ...  .. \\\.....---                                                    │
	//              │ .....\\\.. ..---                                                       │
	//              │ ...\\.. ..---                                                          │
	//              │\\\\.------                                                             │
	//        132.7 └────────────────────────────────────────────────────────────────────────┘
	//               132.3                                                              563.0
}
