package runner

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"netprobe/internal/core"
	"netprobe/internal/loss"
	"netprobe/internal/obs"
	"netprobe/internal/online"
	"netprobe/internal/otrace"
)

// Job is one experiment of a sweep: a complete simulation spec plus a
// label for reporting. The job's effective seed is not taken from
// Config but derived by the pool from the root seed and the job's
// index (see DeriveSeed), so a sweep is reproducible from the root
// seed alone.
type Job struct {
	// Label names the job in results and error messages,
	// e.g. "inria δ=50ms".
	Label string
	// Config is the full simulation spec, run with core.RunSim.
	// Config.Seed is overwritten with the derived per-job seed before
	// the run.
	Config core.SimConfig
}

// Result is the structured outcome of one job, reported in submission
// order.
type Result struct {
	// Index is the job's position in the submitted slice.
	Index int
	// Label echoes Job.Label.
	Label string
	// Seed is the derived seed the job ran with.
	Seed int64
	// Trace is the collected trace; nil if the job failed or was
	// cancelled.
	Trace *core.Trace
	// Stats summarizes the trace's loss behavior (ulp/clp/plg);
	// zero-valued when Trace is nil.
	Stats loss.Stats
	// Wall is the host wall-clock time the job took. It is the only
	// field that varies between identical runs.
	Wall time.Duration
	// TraceFile is the job's lifecycle-event file (otrace JSONL) when
	// the pool ran with the Traces option; empty otherwise.
	TraceFile string
	// Err is the job's failure: the simulation error, a recovered
	// panic, or the context error for jobs cancelled before running.
	Err error
}

// EventKind distinguishes the two Progress notifications.
type EventKind string

// The progress event kinds.
const (
	// JobStart is emitted just before a worker begins a job.
	JobStart EventKind = "start"
	// JobFinish is emitted when a job's Result is complete.
	JobFinish EventKind = "finish"
)

// Event is one live progress notification from the pool. Events are
// delivered serially (never two callbacks at once), so consumers may
// print or accumulate without locking; a slow consumer therefore
// backpressures all workers and should stay cheap.
type Event struct {
	// Kind is JobStart or JobFinish.
	Kind EventKind
	// Index is the job's position in the submitted slice.
	Index int
	// Label echoes Job.Label.
	Label string
	// Seed is the job's derived seed.
	Seed int64
	// Worker identifies the pool worker running the job (0-based).
	Worker int
	// Wall, Stats, and Err are the finished job's outcome; zero on
	// JobStart.
	Wall  time.Duration
	Stats loss.Stats
	Err   error
}

// Summary describes one pool run as a whole: how long the sweep took,
// how busy each worker was, and how the jobs ended. Cancelled counts
// jobs that never produced a trace because the context was done, so a
// partial sweep is distinguishable from a complete one at a glance.
type Summary struct {
	// Jobs is the number of jobs submitted.
	Jobs int
	// Completed, Failed, and Cancelled partition the jobs: traces
	// produced, simulation/panic errors, and context cancellations.
	Completed int
	Failed    int
	Cancelled int
	// Wall is the whole sweep's host wall-clock time.
	Wall time.Duration
	// Workers is the pool size used.
	Workers int
	// WorkerBusy is each worker's cumulative busy time; its length is
	// Workers.
	WorkerBusy []time.Duration
}

// Utilization reports the pool's busy-time over wall-time ratio in
// [0, 1]: 1.0 means every worker computed for the entire sweep.
func (s Summary) Utilization() float64 {
	if s.Wall <= 0 || s.Workers == 0 {
		return 0
	}
	var busy time.Duration
	for _, b := range s.WorkerBusy {
		busy += b
	}
	return float64(busy) / float64(time.Duration(s.Workers)*s.Wall)
}

// String renders the one-line end-of-sweep summary.
func (s Summary) String() string {
	out := fmt.Sprintf("%d jobs in %v on %d workers (%.0f%% utilization): %d completed",
		s.Jobs, s.Wall.Round(time.Millisecond), s.Workers, 100*s.Utilization(), s.Completed)
	if s.Failed > 0 {
		out += fmt.Sprintf(", %d failed", s.Failed)
	}
	if s.Cancelled > 0 {
		out += fmt.Sprintf(", %d cancelled", s.Cancelled)
	}
	return out
}

type options struct {
	workers  int
	progress func(Event)
	metrics  *obs.Registry
	traceDir string
	sinks    []otrace.Sink
}

// Option configures Run.
type Option func(*options)

// Workers sets the pool size. n <= 0 (and the default) means
// runtime.GOMAXPROCS(0); the pool never exceeds the number of jobs.
func Workers(n int) Option {
	return func(o *options) { o.workers = n }
}

// Progress registers fn to receive a JobStart and a JobFinish event
// for every job the pool dispatches (exactly one of each per job, at
// any worker count). Events are serialized, so fn needs no locking.
// Jobs cancelled before dispatch produce no events; they appear in
// the Summary's Cancelled count instead.
func Progress(fn func(Event)) Option {
	return func(o *options) { o.progress = fn }
}

// Metrics points the pool at a registry: per-job wall times land in
// the "runner.job.wall" timer, job outcomes in "runner.jobs.*"
// counters, and each worker's live job count in a
// "runner.worker.inflight{worker=N}" gauge; any job whose
// Config.Metrics is nil inherits reg, so one option instruments both
// the pool and the simulations it runs.
func Metrics(reg *obs.Registry) Option {
	return func(o *options) { o.metrics = reg }
}

// Traces makes every job write its probe-lifecycle event stream
// (otrace JSONL) to TraceFileName(index) under dir, bracketed by
// job_start and job_finish events. The directory is created if
// missing. Each job gets its own file written synchronously from that
// job's goroutine, so the files are byte-identical at any worker
// count; run manifests reference them per job. Jobs whose
// Config.Trace is already set keep their custom sink; their files
// then hold only the job_start/job_finish bracket.
func Traces(dir string) Option {
	return func(o *options) { o.traceDir = dir }
}

// Sink tees every job's trace events — bracketed by job_start and
// job_finish — into s, tagged with the job's label and index (see
// online.Tag), so external consumers can follow the sweep live. s
// must be safe for concurrent Emit across workers; it sees every
// job's events even when the job carries a custom Config.Trace. The
// option may be repeated to register several taps. Works with or
// without the Traces option.
func Sink(s otrace.Sink) Option {
	return func(o *options) {
		if s != nil {
			o.sinks = append(o.sinks, s)
		}
	}
}

// TraceFileName is the per-job trace file name the Traces option
// uses: "job-NNN.jsonl" with the job's submission index.
func TraceFileName(index int) string {
	return fmt.Sprintf("job-%03d.jsonl", index)
}

// Run executes the jobs on a worker pool and returns one Result per
// job, in submission order. Each job's seed is DeriveSeed(rootSeed,
// index), making the whole sweep reproducible from rootSeed at any
// worker count. Cancelling ctx stops dispatching promptly; jobs not
// yet started are returned with Err set to the context's error.
func Run(ctx context.Context, rootSeed int64, jobs []Job, opts ...Option) []Result {
	results, _ := RunAll(ctx, rootSeed, jobs, opts...)
	return results
}

// RunAll is Run, additionally returning the sweep Summary (wall time,
// per-worker busy time, and the completed/failed/cancelled split).
func RunAll(ctx context.Context, rootSeed int64, jobs []Job, opts ...Option) ([]Result, Summary) {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	workers := o.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	results := make([]Result, len(jobs))
	sum := Summary{
		Jobs:       len(jobs),
		Workers:    workers,
		WorkerBusy: make([]time.Duration, workers),
	}
	if len(jobs) == 0 {
		return results, sum
	}
	if o.traceDir != "" {
		if err := os.MkdirAll(o.traceDir, 0o755); err != nil {
			for i := range jobs {
				results[i] = Result{Index: i, Label: jobs[i].Label,
					Seed: DeriveSeed(rootSeed, i),
					Err:  fmt.Errorf("runner: trace dir: %w", err)}
			}
			sum.Failed = len(jobs)
			return results, sum
		}
	}
	start := time.Now()

	// emit serializes Progress callbacks across workers.
	var emitMu sync.Mutex
	emit := func(ev Event) {
		if o.progress == nil {
			return
		}
		emitMu.Lock()
		o.progress(ev)
		emitMu.Unlock()
	}

	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var inflight, active *obs.Gauge
			if o.metrics != nil {
				inflight = o.metrics.Gauge(obs.Label("runner.worker.inflight", "worker", strconv.Itoa(w)))
				// The aggregate across workers, for /statusz and dashboards
				// that don't want per-worker cardinality.
				active = o.metrics.Gauge("runner.jobs.active")
			}
			for i := range idx {
				seed := DeriveSeed(rootSeed, i)
				emit(Event{Kind: JobStart, Index: i, Label: jobs[i].Label, Seed: seed, Worker: w})
				if inflight != nil {
					inflight.Add(1)
					active.Add(1)
				}
				t0 := time.Now()
				res := runJob(ctx, rootSeed, i, jobs[i], &o)
				sum.WorkerBusy[w] += time.Since(t0)
				if inflight != nil {
					inflight.Add(-1)
					active.Add(-1)
				}
				results[i] = res
				if o.metrics != nil {
					o.metrics.Timer("runner.job.wall").Observe(res.Wall)
					o.metrics.Counter("runner.jobs." + string(outcome(ctx, res))).Inc()
				}
				emit(Event{Kind: JobFinish, Index: i, Label: res.Label, Seed: res.Seed,
					Worker: w, Wall: res.Wall, Stats: res.Stats, Err: res.Err})
			}
		}(w)
	}

	next := 0
feed:
	for ; next < len(jobs); next++ {
		select {
		case idx <- next:
		case <-ctx.Done():
			break feed
		}
	}
	close(idx)
	wg.Wait()

	// Jobs never dispatched carry the cancellation cause.
	for i := next; i < len(jobs); i++ {
		results[i] = Result{
			Index: i,
			Label: jobs[i].Label,
			Seed:  DeriveSeed(rootSeed, i),
			Err:   context.Cause(ctx),
		}
		if o.metrics != nil {
			o.metrics.Counter("runner.jobs.cancelled").Inc()
		}
	}
	sum.Wall = time.Since(start)
	for _, r := range results {
		switch outcome(ctx, r) {
		case outcomeCompleted:
			sum.Completed++
		case outcomeFailed:
			sum.Failed++
		case outcomeCancelled:
			sum.Cancelled++
		}
	}
	return results, sum
}

type outcomeKind string

const (
	outcomeCompleted outcomeKind = "completed"
	outcomeFailed    outcomeKind = "failed"
	outcomeCancelled outcomeKind = "cancelled"
)

// outcome classifies a result: no error is completed; the context's
// own error (a job skipped or aborted by cancellation) is cancelled;
// anything else is failed.
func outcome(ctx context.Context, r Result) outcomeKind {
	switch {
	case r.Err == nil:
		return outcomeCompleted
	case errors.Is(r.Err, context.Canceled),
		errors.Is(r.Err, context.DeadlineExceeded),
		context.Cause(ctx) != nil && errors.Is(r.Err, context.Cause(ctx)):
		return outcomeCancelled
	default:
		return outcomeFailed
	}
}

// runJob runs one job's simulation with its derived seed, streaming
// its events into the job's trace file and taps between a job_start
// and a job_finish bracket, and records a failure or a recovered panic
// in Result.Err.
func runJob(ctx context.Context, rootSeed int64, index int, job Job, o *options) (res Result) {
	res = Result{
		Index: index,
		Label: job.Label,
		Seed:  DeriveSeed(rootSeed, index),
	}
	if err := context.Cause(ctx); err != nil {
		res.Err = err
		return res
	}
	start := time.Now()
	var tw *otrace.Writer
	// tap fans out to every registered Sink option, each stamped with
	// the job's identity so consumers can demultiplex the sweep.
	var tap otrace.Sink
	if len(o.sinks) > 0 {
		tagged := make([]otrace.Sink, len(o.sinks))
		for i, s := range o.sinks {
			tagged[i] = online.Tag(s, job.Label, index)
		}
		tap = otrace.Multi(tagged...)
	}
	// bracket carries the job_start/job_finish markers to the trace
	// file and the online bus alike.
	var bracket otrace.Sink
	defer func() {
		res.Wall = time.Since(start)
		if r := recover(); r != nil {
			res.Trace = nil
			res.Stats = loss.Stats{}
			res.Err = fmt.Errorf("runner: job %d (%s) panicked: %v", index, job.Label, r)
		}
		// The finish bracket closes every job's stream, failed or not,
		// so consumers finalize it. It carries only deterministic
		// fields (no wall time), keeping trace files byte-identical
		// across runs and worker counts.
		if bracket != nil {
			bracket.Emit(otrace.Event{Ev: otrace.KindJobFinish, Seq: -1,
				Job: job.Label, Index: index, Seed: res.Seed,
				Probes: res.Stats.N, Losses: res.Stats.Lost})
		}
		if tw == nil {
			return
		}
		if cerr := tw.Close(); cerr != nil && res.Err == nil {
			res.Err = fmt.Errorf("runner: job %d (%s) trace: %w", index, job.Label, cerr)
		}
	}()
	if o.traceDir != "" {
		res.TraceFile = filepath.Join(o.traceDir, TraceFileName(index))
		w, err := otrace.Create(res.TraceFile)
		if err != nil {
			res.Err = fmt.Errorf("runner: job %d (%s): %w", index, job.Label, err)
			return res
		}
		tw = w
	}
	if tw != nil || tap != nil {
		bracket = otrace.Multi(sinkOrNil(tw), tap)
		bracket.Emit(otrace.Event{Ev: otrace.KindJobStart, Seq: -1,
			Job: job.Label, Index: index, Seed: res.Seed})
	}
	// The simulation streams into the composed sink: trace file plus
	// tagged taps. A job with a custom Config.Trace keeps that sink and
	// only the taps join it, so its file holds just the bracket. An
	// untraced job keeps a nil Config.Trace (Multi drops nil sinks),
	// so no trace hooks are attached.
	cfg := job.Config
	cfg.Seed = res.Seed
	if cfg.Metrics == nil {
		cfg.Metrics = o.metrics
	}
	sink := bracket
	if cfg.Trace != nil {
		sink = tap
	}
	cfg.Trace = otrace.Multi(cfg.Trace, sink)
	tr, err := core.RunSim(cfg)
	if err != nil {
		res.Err = fmt.Errorf("runner: job %d (%s): %w", index, job.Label, err)
		return res
	}
	res.Trace = tr
	res.Stats = loss.AnalyzeTrace(tr)
	return res
}

// sinkOrNil converts a possibly-nil *otrace.Writer to a Sink without
// producing a typed-nil interface.
func sinkOrNil(w *otrace.Writer) otrace.Sink {
	if w == nil {
		return nil
	}
	return w
}

// DeltaSweep builds one Job per probe interval on a preset's path —
// the paper's core experimental design. Labels read "<preset> δ=<d>".
func DeltaSweep(p core.Preset, deltas []time.Duration, duration time.Duration) []Job {
	jobs := make([]Job, 0, len(deltas))
	for _, d := range deltas {
		jobs = append(jobs, Job{
			Label:  fmt.Sprintf("%s δ=%v", p.Name, d),
			Config: p.Config(d, duration, 0),
		})
	}
	return jobs
}

// FirstErr returns the first non-nil Result.Err in submission order,
// or nil if every job succeeded.
func FirstErr(results []Result) error {
	for _, r := range results {
		if r.Err != nil {
			return r.Err
		}
	}
	return nil
}
