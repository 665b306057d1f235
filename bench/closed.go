package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"netprobe/internal/capacity"
	"netprobe/internal/core"
	"netprobe/internal/loss"
	"netprobe/internal/obs"
	"netprobe/internal/otrace"
	"netprobe/internal/phase"
	"netprobe/internal/runner"
	"netprobe/internal/trace"
	"netprobe/internal/workload"
)

// The closed-loop workloads: one client hands a batch of simulations to
// the runner's worker pool, waits for every result, and only then
// starts the next batch.

var paperRepro = &workloadDef{
	name:   "paper-repro",
	why:    "the paper's own workload: the full figure/table batch, where the simulator does nearly all the work and the event path none",
	closed: true,
	setup: func(o runOpts) (instance, error) {
		return setupClosed(o, closedKind{name: "paper-repro", op: "batches", root: "batch", jobs: paperJobs, analyze: true})
	},
}

var tracedSweep = &workloadDef{
	name:   "traced-sweep",
	why:    "the Table 3 sweep with per-job JSONL traces, where probe-lifecycle hooks and event encoding take most of the CPU",
	closed: true,
	setup: func(o runOpts) (instance, error) {
		return setupClosed(o, closedKind{name: "traced-sweep", op: "sweeps", root: "sweep", jobs: sweepJobs, traceFiles: true})
	},
}

// closedKind is what tells the two closed-loop workloads apart.
type closedKind struct {
	name       string
	op         string // the timed operations, plural
	root       string // one operation's root span
	jobs       func(scale float64) []runner.Job
	traceFiles bool // write each job's event stream through runner.Traces
	analyze    bool // run the figure and table analyses on the traces
}

// scaled shortens a simulated duration for the short passes, keeping
// at least 10 s so that every job still sends probes.
func scaled(d time.Duration, scale float64) time.Duration {
	return max(time.Duration(float64(d)*scale), 10*time.Second)
}

func label(preset string, d time.Duration) string { return fmt.Sprintf("%s δ=%v", preset, d) }

// paperJobs is the batch cmd/experiments runs: the six-δ INRIA sweep,
// the two Pittsburgh runs, and the route-change, gateway-burst and
// packet-pair extensions.
func paperJobs(scale float64) []runner.Job {
	dur := scaled(10*time.Minute, scale)
	inria, pitt := core.INRIAPreset(), core.PittPreset()
	var jobs []runner.Job
	for _, d := range core.PaperDeltas {
		jobs = append(jobs, runner.Job{Label: label("inria", d), Config: inria.Config(d, dur, 0)})
	}
	for _, d := range []time.Duration{8 * time.Millisecond, 50 * time.Millisecond} {
		jobs = append(jobs, runner.Job{Label: label("pitt", d), Config: pitt.Config(d, dur, 0)})
	}
	rc := inria.Config(50*time.Millisecond, dur, 0)
	rc.RouteChange = &core.RouteChange{At: dur / 2, Hop: 3, Shift: 15 * time.Millisecond}
	jobs = append(jobs, runner.Job{Label: "inria δ=50ms +route-change", Config: rc})
	an := inria.Config(500*time.Millisecond, scaled(15*time.Minute, scale), 0)
	an.Path.Hops[3].Buffer = 80
	an.Anomaly = &core.Anomaly{Period: 90 * time.Second, Burst: 80, Size: 512}
	jobs = append(jobs, runner.Job{Label: "inria δ=500ms +gateway-bursts", Config: an})
	pp := inria.Config(200*time.Millisecond, 0, 0)
	pp.ClockRes = 0
	pp.SendTimes = capacity.PairSchedule(max(10, int(1000*scale)), 200*time.Millisecond, time.Millisecond)
	return append(jobs, runner.Job{Label: "inria packet-pairs", Config: pp})
}

// sweepJobs is the Table 3 sweep: six INRIA runs, one per δ.
func sweepJobs(scale float64) []runner.Job {
	return runner.DeltaSweep(core.INRIAPreset(), core.PaperDeltas, scaled(10*time.Minute, scale))
}

type closedLoop struct {
	kind closedKind
	jobs []runner.Job
	want map[string]string // stored digests for this seed, nil when none
	dir  string            // scratch directory for trace files
}

func setupClosed(o runOpts, kind closedKind) (*closedLoop, error) {
	c := &closedLoop{kind: kind, jobs: kind.jobs(o.scale)}
	if o.scale == 1 {
		c.want = storedDigests(kind.name, o.seed)
	}
	dir, err := os.MkdirTemp(o.workdir, kind.name+"-")
	if err != nil {
		return nil, err
	}
	c.dir = dir
	// A short warm-up batch, so that code, heap and file system are warm
	// before the first timed batch.
	b, err := c.batch(o.seed, kind.jobs(o.scale*fillScale), false)
	if err == nil {
		err = b.err
	}
	if err != nil {
		c.close()
		return nil, fmt.Errorf("warm-up batch: %w", err)
	}
	return c, nil
}

func (c *closedLoop) close() { os.RemoveAll(c.dir) }

// batchResult is one timed batch.
type batchResult struct {
	wall, cpu time.Duration
	err       error             // first job error
	digests   map[string]string // job label (or "analyses") → SHA-256
	layers    map[string]float64
	// Traced batches: monotonic timestamps for the spans.
	t0, tRun, t1     int64
	jobStart, jobEnd []int64
	analysisMarks    [4]int64
}

func (c *closedLoop) measure(o runOpts) (*outcome, error) {
	traced := o.traced
	out := &outcome{op: c.kind.op, layers: map[string]float64{}}
	perBatch := map[string][]float64{}
	var first map[string]string
	repeatable := true
	start := time.Now()
	for n := int64(0); n < 2 || time.Since(start).Seconds() < o.seconds; n++ {
		b, err := c.batch(o.seed, c.jobs, traced)
		if err != nil {
			return nil, err
		}
		out.ops++
		if first == nil {
			first = b.digests
		}
		ok := b.err == nil && sameDigests(b.digests, first)
		if c.want != nil {
			ok = ok && sameDigests(b.digests, c.want)
		}
		repeatable = repeatable && sameDigests(b.digests, first)
		if !ok {
			out.failed++
			if b.err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s %d: %v\n", c.kind.name, n, b.err)
			}
			continue
		}
		out.windows = append(out.windows, window{cpu: b.cpu, ops: 1, latencyMs: []float64{b.wall.Seconds() * 1e3}})
		for k, v := range b.layers {
			perBatch[k] = append(perBatch[k], v)
		}
		if traced {
			c.addSpans(&out.log, n, b)
		}
	}
	switch {
	case c.want != nil:
		out.check("digests", out.failed == 0, fmt.Sprintf("seed %d: %d digests × %d %s against testdata",
			o.seed, len(c.want), out.ops, c.kind.op))
	case repeatable:
		out.checks = append(out.checks, check{"digests", "unverified", fmt.Sprintf(
			"no stored digests for seed %d at this length; %d %s gave identical digests", o.seed, out.ops, c.kind.op)})
	default:
		out.check("digests", false, "digests differ between "+c.kind.op)
	}
	for k, vs := range perBatch {
		out.layers[k] = median(vs)
	}
	if traced && c.kind.traceFiles {
		for k, v := range encodeCosts(o) {
			out.layers[k] = v
		}
	}
	if o.record {
		if o.scale != 1 || first == nil {
			return nil, fmt.Errorf("-record needs a full-length run")
		}
		if err := recordDigests(c.kind.name, o.seed, first); err != nil {
			return nil, err
		}
		fmt.Printf("  recorded %d digests for seed %d in %s\n", len(first), o.seed, digestsPath)
	}
	return out, nil
}

// batch runs the jobs once on the worker pool, timing it, and then
// digests every job's output outside the timed region.
func (c *closedLoop) batch(seed int64, jobs []runner.Job, traced bool) (*batchResult, error) {
	b := &batchResult{}
	reg := obs.NewRegistry()
	opts := []runner.Option{runner.Workers(workers), runner.Metrics(reg)}
	dir := filepath.Join(c.dir, "traces")
	if c.kind.traceFiles {
		opts = append(opts, runner.Traces(dir))
		defer os.RemoveAll(dir)
	}
	if traced {
		b.jobStart, b.jobEnd = make([]int64, len(jobs)), make([]int64, len(jobs))
		opts = append(opts, runner.Progress(func(ev runner.Event) {
			if ev.Kind == runner.JobStart {
				b.jobStart[ev.Index] = mono()
			} else {
				b.jobEnd[ev.Index] = mono()
			}
		}))
	}
	var m0, m1, m2 runtime.MemStats
	if traced {
		runtime.ReadMemStats(&m0)
	}
	cpu0 := cpuTime()
	b.t0 = mono()
	results, sum := runner.RunAll(context.Background(), seed, jobs, opts...)
	b.tRun = mono()
	if traced {
		runtime.ReadMemStats(&m1)
	}
	b.err = runner.FirstErr(results)
	var analyses string
	if c.kind.analyze && b.err == nil {
		analyses, b.analysisMarks = paperAnalyses(results)
	}
	b.t1 = mono()
	b.cpu = cpuTime() - cpu0
	b.wall = time.Duration(b.t1 - b.t0)
	if traced {
		runtime.ReadMemStats(&m2)
	}
	if b.err != nil {
		return b, nil
	}

	b.digests = make(map[string]string, len(results)+1)
	var lines int64
	for _, r := range results {
		h := sha256.New()
		if c.kind.traceFiles {
			n, err := hashFile(h, r.TraceFile)
			if err != nil {
				return nil, err
			}
			lines += n
		} else if err := trace.WriteCSV(h, r.Trace); err != nil {
			return nil, err
		}
		b.digests[r.Label] = hex.EncodeToString(h.Sum(nil))
	}
	if c.kind.analyze {
		sum := sha256.Sum256([]byte(analyses))
		b.digests["analyses"] = hex.EncodeToString(sum[:])
	}
	if !traced {
		return b, nil
	}

	events := reg.Counter("sim.events").Value()
	var jobWall, maxWall time.Duration
	for _, r := range results {
		jobWall += r.Wall
		maxWall = max(maxWall, r.Wall)
	}
	perEvent := func(v uint64) float64 { return float64(v) / float64(max(events, 1)) }
	b.layers = map[string]float64{
		"runner.utilization":    sum.Utilization(),
		"runner.job_wall_max_s": maxWall.Seconds(),
		"sim.events":            float64(events),
		"sim.ns_per_event":      float64(jobWall) / float64(max(events, 1)),
		"sim.allocs_per_event":  perEvent(m1.Mallocs - m0.Mallocs),
		"sim.bytes_per_event":   perEvent(m1.TotalAlloc - m0.TotalAlloc),
		"sim.heap_high_water":   float64(reg.Gauge("sim.heap.high_water").Value()),
		"gc.cycles":             float64(m2.NumGC - m0.NumGC),
		"process.allocs_per_op": float64(m2.Mallocs - m0.Mallocs),
		"process.bytes_per_op":  float64(m2.TotalAlloc - m0.TotalAlloc),
	}
	if c.kind.analyze {
		m := b.analysisMarks
		b.layers["phase.estimate_ms"] = float64(m[1]-m[0]) / 1e6
		b.layers["workload.analyze_ms"] = float64(m[2]-m[1]) / 1e6
		b.layers["loss.analyze_ms"] = float64(m[3]-m[2]) / 1e6
	}
	if c.kind.traceFiles {
		b.layers["otrace.events"] = float64(lines)
	}
	return b, nil
}

// addSpans records one traced batch: the batch, the runner call inside
// it, each job the runner executed, and the analyses after it.
func (c *closedLoop) addSpans(log *spanLog, n int64, b *batchResult) {
	root := log.add(n, 0, c.kind.root, b.t0, b.t1)
	run := log.add(n, root, "runner.Run", b.t0, b.tRun)
	for i := range b.jobStart {
		log.add(n, run, "runner.job", b.jobStart[i], b.jobEnd[i])
	}
	if c.kind.analyze {
		m := b.analysisMarks
		log.add(n, root, "phase.estimate", m[0], m[1])
		log.add(n, root, "workload.analyze", m[1], m[2])
		log.add(n, root, "loss.analyze", m[2], m[3])
	}
	log.ops++
}

// paperAnalyses runs the analyses cmd/experiments prints on a batch:
// the phase-plot bottleneck estimates of Figures 2, 4, 5 and 6, the
// workload reading of Figures 8 and 9, and the loss statistics of
// Figure 1 and Table 3. It returns their results as text, for the
// digest, and the monotonic instants between the three groups.
func paperAnalyses(results []runner.Result) (string, [4]int64) {
	tr := make(map[string]*core.Trace, len(results))
	for _, r := range results {
		tr[r.Label] = r.Trace
	}
	inria := func(d time.Duration) *core.Trace { return tr[label("inria", d)] }
	var sb strings.Builder
	var marks [4]int64
	marks[0] = mono()
	for _, f := range []struct {
		tr  *core.Trace
		min int
	}{
		{inria(50 * time.Millisecond), 0}, {inria(500 * time.Millisecond), 0},
		{tr[label("pitt", 8*time.Millisecond)], 0}, {tr[label("pitt", 50*time.Millisecond)], 40},
	} {
		est, err := phase.EstimateBottleneck(f.tr.Slice(0, 800), f.min)
		fmt.Fprintf(&sb, "phase %s: %+v %v\n", f.tr.Name, est, err)
	}
	marks[1] = mono()
	tr20, tr100 := inria(20*time.Millisecond), inria(100*time.Millisecond)
	mu := float64(tr20.BottleneckBps)
	a, err := workload.Analyze(tr20, mu, 1.5)
	fmt.Fprintf(&sb, "workload: %+v %v; compression %v %v\n", a, err,
		workload.CompressionFraction(tr20, mu, 3), workload.CompressionFraction(tr100, mu, 3))
	marks[2] = mono()
	fmt.Fprintf(&sb, "loss figure 1: %+v\n", loss.AnalyzeTrace(inria(50*time.Millisecond).Slice(0, 800)))
	for _, d := range core.PaperDeltas {
		fmt.Fprintf(&sb, "loss δ=%v: %+v\n", d, loss.AnalyzeTrace(inria(d)))
	}
	marks[3] = mono()
	return sb.String(), marks
}

// encodeCosts measures the JSONL encoder alone: one job's captured
// event stream (INRIA, δ=100 ms) re-encoded through otrace.NewWriter,
// and the share of a sim's wall time its probe-lifecycle hooks cost
// (the same config run with an event sink that discards, and with
// none).
func encodeCosts(o runOpts) map[string]float64 {
	cfg := core.INRIAPreset().Config(100*time.Millisecond, scaled(10*time.Minute, o.scale), o.seed)
	var captured eventLog
	cfg.Trace = &captured
	if _, err := core.RunSim(cfg); err != nil {
		panic(err) // the same config already ran in the sweep
	}
	var cw countingWriter
	w := otrace.NewWriter(&cw)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := mono()
	for _, ev := range captured.events {
		w.Emit(ev)
	}
	if err := w.Close(); err != nil {
		panic(err) // countingWriter never fails
	}
	dt := mono() - t0
	runtime.ReadMemStats(&m1)
	n := float64(len(captured.events))

	var plain, hooked []float64
	for i := 0; i < 3; i++ {
		for _, sink := range []otrace.Sink{nil, otrace.Discard} {
			cfg.Trace = sink
			t := mono()
			if _, err := core.RunSim(cfg); err != nil {
				panic(err)
			}
			if sink == nil {
				plain = append(plain, float64(mono()-t))
			} else {
				hooked = append(hooked, float64(mono()-t))
			}
		}
	}
	return map[string]float64{
		"otrace.jsonl_ns_per_event":     float64(dt) / n,
		"otrace.jsonl_bytes_per_event":  float64(cw.n) / n,
		"otrace.jsonl_allocs_per_event": float64(m1.Mallocs-m0.Mallocs) / n,
		"sim.hook_overhead_frac":        (median(hooked) - median(plain)) / median(plain),
	}
}

// eventLog is a single-producer sink that keeps every event.
type eventLog struct{ events []otrace.Event }

func (l *eventLog) Emit(ev otrace.Event) { l.events = append(l.events, ev) }

// countingWriter discards what it is given and counts the bytes.
type countingWriter struct{ n int64 }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// hashFile feeds a file to h and returns its line count.
func hashFile(h io.Writer, path string) (int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	var lines int64
	buf := make([]byte, 1<<20)
	for {
		n, err := f.Read(buf)
		lines += int64(bytes.Count(buf[:n], []byte{'\n'}))
		h.Write(buf[:n])
		if err == io.EOF {
			return lines, nil
		}
		if err != nil {
			return 0, err
		}
	}
}

func sameDigests(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// digestsJSON holds the trace digests of full-length runs, by workload,
// then seed, then job label. A job's digest is the SHA-256 of its trace
// as CSV (paper-repro) or of its JSONL event file (traced-sweep);
// "analyses" digests paper-repro's printed analysis results.
//
//go:embed testdata/digests.json
var digestsJSON []byte

// digestsPath is where -record writes, relative to the repository root.
const digestsPath = "bench/testdata/digests.json"

type digestTable map[string]map[string]map[string]string

func storedDigests(workload string, seed int64) map[string]string {
	var all digestTable
	if err := json.Unmarshal(digestsJSON, &all); err != nil {
		panic(err) // embedded at build time
	}
	return all[workload][strconv.FormatInt(seed, 10)]
}

func recordDigests(workload string, seed int64, d map[string]string) error {
	all := digestTable{}
	data, err := os.ReadFile(digestsPath)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, &all); err != nil {
		return err
	}
	if all[workload] == nil {
		all[workload] = map[string]map[string]string{}
	}
	all[workload][strconv.FormatInt(seed, 10)] = d
	out, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(digestsPath, append(out, '\n'), 0o644)
}

// epoch anchors mono.
var epoch = time.Now()

// mono is a monotonic clock in nanoseconds.
func mono() int64 { return int64(time.Since(epoch)) }
