// Command bench is the repository's benchmark. It drives the paper's
// simulations and the fleet event path through their public packages
// on four workloads, checks every output, and prints the end-to-end
// metrics BENCHMARK.json gates or, with -trace 1, the per-layer metrics
// and a self-time table from a traced pass.
//
// Run it from the repository root:
//
//	bash bench/run.sh -workload relay-ingest -seed 1 -seconds 20 -trace 0
//	bash bench/run.sh                  # all four workloads
//	bash bench/run.sh -compare parent.jsonl change.jsonl
//
// Each workload runs in a child process of this binary under a hard
// timeout, so a hang or a crash reports a failed run instead of
// stalling. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. README.md describes the
// workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

var (
	workloadFlag = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+" (empty runs all four)")
	seedFlag     = flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	secondsFlag  = flag.Int("seconds", 20, "length of one run's measurement, in seconds")
	traceFlag    = flag.Int("trace", 0, "1 runs the traced pass and prints per-layer metrics instead of end-to-end ones")
	outFlag      = flag.String("out", "", "append one JSON record per run to this file (input to -compare)")
	compareFlag  = flag.Bool("compare", false, "compare two -out files given as arguments: parent first, then change")
	recordFlag   = flag.Bool("record", false, "store this seed's trace digests in bench/testdata (paper-repro, traced-sweep)")
	workdirFlag  = flag.String("workdir", ".bench_build", "directory for scratch files and span dumps")
	childFlag    = flag.String("child", "", "run the workload in this process and write its result to this file")
)

// workers is the pool size, shard count and connection count of every
// workload: the sandbox the benchmark was sized on has two cores, and
// no workload uses more generator threads or connections than that.
const workers = 2

// fillScale is the length, relative to a full run, of the passes that
// the smoke test makes and that a traced run adds for the layers its
// workload does not drive.
const fillScale = 1.0 / 50

// metricValue is one metric of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is one line of an -out file.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Seconds  int    `json:"seconds"`
	Trace    int    `json:"trace"`
	Result   result `json:"result"`
}

func main() {
	flag.Parse()
	switch {
	case *compareFlag:
		os.Exit(compareMain(os.Stdout, flag.Args()))
	case *childFlag != "":
		os.Exit(childMain())
	}
	os.Exit(parentMain())
}

// parentMain runs each requested workload in its own child process.
func parentMain() int {
	names := workloadNames()
	if *workloadFlag != "" {
		if lookup(*workloadFlag) == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %s)\n", *workloadFlag, strings.Join(names, ", "))
			return 2
		}
		names = []string{*workloadFlag}
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "bench: -trace must be 0 or 1")
		return 2
	}
	if *secondsFlag < 1 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be at least 1")
		return 2
	}
	if err := os.MkdirAll(*workdirFlag, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	code := 0
	for _, name := range names {
		res := runIsolated(name)
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		fmt.Println(string(line))
		if *outFlag != "" {
			if err := appendRecord(*outFlag, record{Workload: name, Seed: *seedFlag,
				Seconds: *secondsFlag, Trace: *traceFlag, Result: res}); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				code = 1
			}
		}
		if !res.Correct || res.Failed > 0 {
			code = 1
		}
	}
	return code
}

// runIsolated runs one workload in a child process with a hard timeout
// of three times its planned length, and adds the child's peak resident
// memory to an untraced result.
func runIsolated(name string) result {
	path := filepath.Join(*workdirFlag, fmt.Sprintf("result-%d-%s.json", os.Getpid(), name))
	defer os.Remove(path)
	exe, err := os.Executable()
	if err != nil {
		return failedResult(fmt.Errorf("locating the benchmark binary: %w", err))
	}
	args := []string{"-child", path, "-workload", name, "-seed", fmt.Sprint(*seedFlag),
		"-seconds", fmt.Sprint(*secondsFlag), "-trace", fmt.Sprint(*traceFlag), "-workdir", *workdirFlag}
	if *recordFlag {
		args = append(args, "-record")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	if err := cmd.Start(); err != nil {
		return failedResult(fmt.Errorf("starting %s: %w", name, err))
	}
	// Set-up, the traced run's extra passes and the drain after an
	// open-loop run add up to about 20 s beyond the measurement.
	limit := min(3*(time.Duration(*secondsFlag)*time.Second+20*time.Second), 170*time.Second)
	var timedOut atomic.Bool
	timer := time.AfterFunc(limit, func() {
		timedOut.Store(true)
		cmd.Process.Kill() //nolint:errcheck // Wait reports the outcome
	})
	err = cmd.Wait()
	timer.Stop()
	switch {
	case timedOut.Load():
		return failedResult(fmt.Errorf("%s exceeded its %v hard timeout and was killed", name, limit))
	case err != nil:
		return failedResult(fmt.Errorf("%s: %w", name, err))
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return failedResult(fmt.Errorf("%s wrote no result: %w", name, err))
	}
	var res result
	if err := json.Unmarshal(data, &res); err != nil {
		return failedResult(fmt.Errorf("%s result: %w", name, err))
	}
	if *traceFlag == 0 {
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			// Maxrss is the child's VmHWM, in KiB on Linux.
			rss := float64(ru.Maxrss) / 1024
			res.Metrics["peak_rss_mb"] = metricValue{rss, "MB"}
			fmt.Printf("  %-30s %14.4f %-6s child process VmHWM\n", "peak_rss_mb", rss, "MB")
		}
	}
	return res
}

// failedResult reports a run that produced no measurement: one
// operation attempted and failed, and every metric zero.
func failedResult(err error) result {
	fmt.Fprintln(os.Stderr, "bench: FAIL:", err)
	defs := endToEnd
	if *traceFlag == 1 {
		defs = perLayer
	}
	res := result{Attempted: 1, Failed: 1, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		res.Metrics[d.Name] = metricValue{0, d.Unit}
	}
	return res
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// childMain runs one workload in this process and writes its result to
// the -child path.
func childMain() int {
	w := lookup(*workloadFlag)
	if w == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workloadFlag)
		return 2
	}
	o := runOpts{seed: *seedFlag, seconds: float64(*secondsFlag), scale: 1,
		workdir: *workdirFlag, record: *recordFlag}
	var res result
	if *traceFlag == 1 {
		res = runTraced(w, o)
	} else {
		res = runUntraced(w, o)
	}
	data, err := json.Marshal(res)
	if err == nil {
		err = os.WriteFile(*childFlag, data, 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return 0
}

// runOpts sizes one run.
type runOpts struct {
	seed    int64
	seconds float64 // measurement window
	scale   float64 // simulated durations and stream lengths, relative to a full run
	workdir string
	record  bool // store trace digests for this seed
	traced  bool // record spans and per-layer metrics
}

// workloadDef is one benchmark workload.
type workloadDef struct {
	name string
	why  string
	// closed marks a closed-loop workload: its spans decompose CPU per
	// operation, where an open-loop workload's decompose latency.
	closed bool
	setup  func(o runOpts) (instance, error)
}

// instance is a workload set up and ready to measure once.
type instance interface {
	measure(o runOpts) (*outcome, error)
	close()
}

// outcome is what one measurement produced.
type outcome struct {
	op      string // what the operations are, plural, for the printout
	sampled string // what the latency samples are, when not every operation
	ops     int64
	failed  int64
	windows []window
	layers  map[string]float64 // traced measurements only
	log     spanLog            // traced measurements only
	checks  []check
}

// window is one stretch of a measurement: a batch for the closed-loop
// workloads, one second of due times for the open-loop ones. The
// end-to-end metrics are medians over a run's windows, so a burst of
// contention from the host's other tenants moves a few windows rather
// than the whole run.
type window struct {
	cpu       time.Duration
	ops       int64
	latencyMs []float64 // one per successful (or sampled) operation
}

// windowLen is the length of an open-loop window, in due time.
const windowLen = time.Second

// sample is one open-loop latency, with the window its operation was
// due in.
type sample struct {
	win int32
	ns  int64
}

// openWindows builds an open-loop run's windows from the process CPU
// time taken at each window's start and once after the run, the
// operations due in each window, and the latency samples.
func openWindows(marks []time.Duration, ops []int64, samples ...[]sample) []window {
	ws := make([]window, len(ops))
	for i := range ws {
		ws[i] = window{cpu: marks[i+1] - marks[i], ops: ops[i]}
	}
	for _, ss := range samples {
		for _, s := range ss {
			ws[s.win].latencyMs = append(ws[s.win].latencyMs, float64(s.ns)/1e6)
		}
	}
	return ws
}

// latencies pools every window's latency samples.
func (o *outcome) latencies() []float64 {
	var all []float64
	for _, w := range o.windows {
		all = append(all, w.latencyMs...)
	}
	return all
}

// cpuPerOp is the median over windows of process CPU per operation, in µs.
func (o *outcome) cpuPerOp() float64 {
	var xs []float64
	for _, w := range o.windows {
		if w.ops > 0 {
			xs = append(xs, w.cpu.Seconds()*1e6/float64(w.ops))
		}
	}
	return median(xs)
}

// latency is the median over windows of each window's q-quantile
// latency (for q > 0.5, its highest percentile at or below q with ten
// samples beyond it), and the lowest percentile a window used.
func (o *outcome) latency(q float64) (ms, used float64) {
	var xs []float64
	used = q
	for _, w := range o.windows {
		if len(w.latencyMs) == 0 {
			continue
		}
		v, u := quantile(w.latencyMs, q), q
		if q > 0.5 {
			v, u = tail(w.latencyMs, q)
		}
		xs, used = append(xs, v), min(used, u)
	}
	return median(xs), used
}

// check is one output check: status "ok", "unverified" (passes, but
// against nothing stored) or "FAIL".
type check struct {
	name, status, detail string
}

func (o *outcome) check(name string, ok bool, detail string) {
	status := "ok"
	if !ok {
		status = "FAIL"
	}
	o.checks = append(o.checks, check{name, status, detail})
}

func (o *outcome) correct() bool {
	for _, c := range o.checks {
		if c.status == "FAIL" {
			return false
		}
	}
	return o.failed == 0
}

// figure is the end-to-end figure a workload's spans decompose, in ms
// per operation: CPU for the closed-loop workloads, latency for the
// open-loop ones, both as means over the whole run.
func (o *outcome) figure(closed bool) float64 {
	if !closed {
		return mean(o.latencies())
	}
	var cpu time.Duration
	for _, w := range o.windows {
		cpu += w.cpu
	}
	return cpu.Seconds() * 1e3 / float64(max(o.ops, 1))
}

func figureName(closed bool) string {
	if closed {
		return "cpu/op"
	}
	return "mean latency"
}

// setupAndMeasure sets the workload up `setups` times, keeping the
// last instance, and measures it once. It returns each set-up's
// duration in seconds.
func setupAndMeasure(w *workloadDef, o runOpts, setups int) (*outcome, []float64, error) {
	var inst instance
	var times []float64
	for i := 0; i < setups; i++ {
		if inst != nil {
			inst.close()
			inst = nil
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if inst, err = w.setup(o); err != nil {
			return nil, times, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	out, err := inst.measure(o)
	inst.close()
	if err != nil {
		return nil, times, fmt.Errorf("%s: %w", w.name, err)
	}
	return out, times, nil
}

// setupRepeats is how many times an untraced run sets up, reporting
// the median as setup_s.
const setupRepeats = 5

func runUntraced(w *workloadDef, o runOpts) result {
	fmt.Printf("%s seed=%d: %g s measurement, untraced\n", w.name, o.seed, o.seconds)
	out, setups, err := setupAndMeasure(w, o, setupRepeats)
	if err != nil {
		return failedResult(err)
	}
	printChecks(out)
	res := result{Correct: out.correct(), Attempted: out.ops, Failed: out.failed, Metrics: map[string]metricValue{}}
	set := func(name string, v float64, note string) {
		d, _ := findMetric(endToEnd, name)
		res.Metrics[name] = metricValue{finite(v, &res), d.Unit}
		fmt.Printf("  %-30s %14.4f %-6s %s\n", name, v, d.Unit, note)
	}
	n, sampled := len(out.latencies()), out.op
	if out.sampled != "" {
		sampled = out.sampled
	}
	over := fmt.Sprintf("%d %s in %d windows", n, sampled, len(out.windows))
	p50, _ := out.latency(0.5)
	p90, q := out.latency(0.9)
	fmt.Printf("  %-30s %14.4f %-6s window p50, median over windows; %s (ungated)\n", "latency_p50_ms", p50, "ms", over)
	set("latency_p90_ms", p90, fmt.Sprintf("window p%g (highest ≤ p90 with ≥%d samples beyond), median over windows; %s",
		100*q, tailSamples, over))
	set("cpu_us_per_op", out.cpuPerOp(), fmt.Sprintf("process CPU per op, median over windows; %d %s", out.ops, out.op))
	set("setup_s", median(setups), fmt.Sprintf("median of %d set-ups", len(setups)))
	fmt.Printf("  attempted %d %s, failed %d\n", out.ops, out.op, out.failed)
	return res
}

// runTraced measures the workload untraced and then traced, half the
// run each, and prints the per-layer self-time table. Per-layer metrics
// of layers this workload does not drive come from short traced passes
// of the workloads that do, so every traced run reports every layer.
func runTraced(w *workloadDef, o runOpts) result {
	half := o
	half.seconds = o.seconds / 2
	fmt.Printf("%s seed=%d: traced run, %.0f s untraced then %.0f s traced\n", w.name, o.seed, half.seconds, half.seconds)
	untraced, _, err := setupAndMeasure(w, half, 1)
	if err != nil {
		return failedResult(err)
	}
	half.traced = true
	traced, _, err := setupAndMeasure(w, half, 1)
	if err != nil {
		return failedResult(err)
	}
	printChecks(untraced)
	printChecks(traced)
	fmt.Printf("  per-layer self time, traced half:\n")
	residual, overhead := traced.log.printLayers(os.Stdout, figureName(w.closed),
		untraced.figure(w.closed), traced.figure(w.closed))
	if err := traced.log.write(spanPath(o.workdir, w.name, o.seed)); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
	} else {
		fmt.Printf("  spans written to %s\n", spanPath(o.workdir, w.name, o.seed))
	}

	res := result{Correct: untraced.correct() && traced.correct(),
		Attempted: untraced.ops + traced.ops, Failed: untraced.failed + traced.failed,
		Metrics: map[string]metricValue{}}
	layers := traced.layers
	layers["latency_p50_ms"], _ = untraced.latency(0.5)
	layers["latency_p99_ms"], _ = tail(untraced.latencies(), 0.99)
	layers["trace.residual_frac"] = residual
	layers["trace.overhead_frac"] = overhead
	source := map[string]string{}
	for _, other := range workloads {
		if other.name == w.name || !missingLayers(layers) {
			continue
		}
		fill := o
		fill.seconds, fill.scale, fill.traced = o.seconds*fillScale, fillScale, true
		out, _, err := setupAndMeasure(other, fill, 1)
		if err != nil {
			return failedResult(err)
		}
		res.Correct = res.Correct && out.correct()
		for k, v := range out.layers {
			if _, ok := layers[k]; !ok {
				layers[k] = v
				source[k] = other.name
			}
		}
	}
	fmt.Printf("  per-layer metrics:\n")
	for _, d := range perLayer {
		v, ok := layers[d.Name]
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: FAIL: no traced pass measured %s\n", d.Name)
			res.Correct = false
		}
		note := ""
		if s := source[d.Name]; s != "" {
			note = "from a 1/50-length traced pass of " + s
		}
		res.Metrics[d.Name] = metricValue{finite(v, &res), d.Unit}
		fmt.Printf("  %-30s %14.4f %-6s %s\n", d.Name, v, d.Unit, note)
	}
	return res
}

// finite passes v through, or returns 0 and marks the result incorrect
// when v is NaN or infinite: a metric nothing was measured for.
func finite(v float64, res *result) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		res.Correct = false
		return 0
	}
	return v
}

func missingLayers(layers map[string]float64) bool {
	for _, d := range perLayer {
		if _, ok := layers[d.Name]; !ok {
			return true
		}
	}
	return false
}

func printChecks(out *outcome) {
	for _, c := range out.checks {
		fmt.Printf("  check %-18s %-10s %s\n", c.name, c.status, c.detail)
	}
}

// workloads lists the benchmark's workloads in BENCHMARK.json order.
var workloads = []*workloadDef{paperRepro, tracedSweep, relayIngest, fleetChurn}

func lookup(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// pace readies the calling goroutine to run an open-loop schedule with
// sleepUntil: it locks the goroutine to its thread and sets the
// thread's timer slack to 1 ns, so that nanosleep wakes within
// microseconds of the due time instead of the default 50 µs later. The
// returned function undoes both.
func pace() (release func()) {
	const setSlack, getSlack = 29, 30 // PR_SET_TIMERSLACK, PR_GET_TIMERSLACK
	runtime.LockOSThread()
	old, _, _ := syscall.RawSyscall(syscall.SYS_PRCTL, getSlack, 0, 0)
	syscall.RawSyscall(syscall.SYS_PRCTL, setSlack, 1, 0)
	return func() {
		syscall.RawSyscall(syscall.SYS_PRCTL, setSlack, old, 0)
		runtime.UnlockOSThread()
	}
}

// sleepUntil blocks until the wall clock reaches due (Unix ns) and
// returns the time it woke. It sleeps in the nanosleep system call:
// time.Sleep wakes from the runtime's millisecond-granular poller,
// which would add up to a millisecond of generator lateness to every
// open-loop latency.
func sleepUntil(due int64) int64 {
	for {
		now := time.Now().UnixNano()
		if now >= due {
			return now
		}
		ts := syscall.NsecToTimespec(due - now)
		syscall.Nanosleep(&ts, nil) //nolint:errcheck // EINTR: the loop re-checks the clock
	}
}

// setPercentiles stores "<base>.pNN" layer metrics from nanosecond
// samples converted with per (1e3 for µs, 1e6 for ms). Tail
// percentiles follow the ten-samples-beyond rule of tail.
func setPercentiles(layers map[string]float64, base string, ns []int64, per float64, qs ...float64) {
	xs := nsToUnit(ns, per)
	for _, q := range qs {
		v := quantile(xs, q)
		if q > 0.5 {
			v, _ = tail(xs, q)
		}
		layers[fmt.Sprintf("%s.p%d", base, int(100*q+0.5))] = v
	}
}
