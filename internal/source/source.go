// Package source unifies where probe event streams come from.
//
// Bolot's analyses only care about the stream of probe-lifecycle
// events, not who produced it: the simulator, a real prober on this
// box, a trace file on disk, and a prober on another machine all yield
// the same otrace.Event schema. Source is the one abstraction over
// those producers — a stream with a common lifecycle (run to
// completion or context cancellation, emit into a Sink, report one
// error) — so the consumers (internal/runner jobs, the online engine,
// the commands) are written once against Source and work for all four:
//
//   - SimSource wraps core.RunSim (deterministic, seeded via Seedable);
//   - ProbeSource wraps a supervised netdyn probing session;
//   - FileSource replays recorded otrace JSONL files (tolerating
//     crash-truncated tails);
//   - RemoteSource reads the length-prefixed binary wire framing
//     (otrace.FrameReader) from a TCP peer, with Sender/Dial as the
//     producing half and Serve fanning many remote sources into one
//     sink — the measurement-plane path that lets a prober on one box
//     stream into an online.Engine on another.
package source

import (
	"context"

	"netprobe/internal/core"
	"netprobe/internal/otrace"
)

// Source is one stream of probe-lifecycle events. Run emits the
// stream's events into sink in order and returns after the last event
// (or on failure/cancellation); the stream is complete exactly when
// Run returns nil. A Source is single-use unless documented otherwise:
// create a fresh value per run.
type Source interface {
	// Name identifies the source in labels, logs, and metrics.
	Name() string
	// Run produces the event stream into sink. Implementations honor
	// ctx where the underlying producer can be interrupted (real
	// probing, network reads); producers that cannot be interrupted
	// mid-flight (a virtual-time simulation) check ctx between runs.
	// sink must be non-nil; Emit is called from at most the goroutines
	// the underlying producer documents.
	Run(ctx context.Context, sink otrace.Sink) error
}

// Seedable is implemented by sources whose randomness is driven by a
// seed (SimSource). The runner sets each job's derived seed before
// Run, which is what keeps Source-based sweeps byte-identical at any
// worker count.
type Seedable interface {
	SetSeed(seed int64)
}

// Traced is implemented by sources that can report the run's
// core.Trace after Run returns (SimSource and ProbeSource natively,
// FileSource by reconstruction). The runner uses it to fill
// Result.Trace and the loss statistics for Source-based jobs.
type Traced interface {
	Trace() *core.Trace
}
