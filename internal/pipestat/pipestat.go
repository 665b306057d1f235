// Package pipestat is the measurement plane's self-observability
// layer: stage-lag tracing and an event-conservation ledger over the
// otrace event pipeline.
//
// Bolot's estimators are only as trustworthy as the pipeline carrying
// the probe events. A stalled bus subscriber, a silently failing wire
// sender, or a lagging relay skews ulp/clp and the phase-plot fit
// exactly like real path loss — so the pipeline must account for
// itself the way it accounts for probes.
//
// Two mechanisms, one per failure mode:
//
//   - Stage-lag tracing answers "how far behind is each hop?". The
//     first stage that sees an event stamps it with the wall clock
//     (Event.Stamp, never serialized); downstream stages wrapped in
//     Chain.Stage observe their lag behind that stamp into
//     pipeline.lag{chain=,stage=} histograms and count throughput in
//     pipeline.events{chain=,stage=} counters on /metrics.
//
//   - The conservation ledger answers "where did the missing events
//     go?". Every event stream a process fans out to — the online bus,
//     a trace file behind a bounded queue, a wire sender — is a Chain
//     in the Ledger. Each chain registers how many events it produced,
//     how many each terminal applied, and how many each lossy stage
//     dropped; the invariant produced == applied + Σ drops(stage) must
//     hold once the pipeline drains. The residual is exported as the
//     pipeline.unaccounted gauge (transiently positive while events
//     are in flight, pinned to zero at quiescence by the conservation
//     tests) and in the /statusz pipeline section.
//
// The Monitor is the engine-side probe: an online.Analyzer that counts
// applied events (closing the ledger's main chain), observes
// produced→applied lag, and tracks per-job liveness (event counts,
// last-event age, finalization) for /statusz.
package pipestat

import (
	"time"

	"netprobe/internal/otrace"
)

// The pipeline stage names used across the repository. Chains may
// introduce their own; these are the hops the ISSUE's pipeline
// diagram names.
const (
	// StageProduced is the chain head: the producing goroutine's emit.
	StageProduced = "produced"
	// StageBusEnqueued is acceptance onto an online bus queue.
	StageBusEnqueued = "bus_enqueued"
	// StageApplied is dispatch into the online analyzers (the Monitor).
	StageApplied = "applied"
	// StageWireSent is the hand-off to a relay connection's Sender.
	StageWireSent = "wire_sent"
	// StageRelayReceived is ingress at the relay (events are re-stamped
	// there: wall clocks do not transfer between hosts, so cross-host
	// lag is tracked as heartbeat clock skew instead — see
	// internal/source).
	StageRelayReceived = "relay_received"
)

// Now is the stamp clock: wall-clock Unix nanoseconds. Lags are
// same-process differences of these stamps, so the monotonic-clock
// caveats of cross-host comparison do not apply.
func Now() int64 { return time.Now().UnixNano() }

// Stamp returns ev stamped with the current time, unless an earlier
// stage already stamped it.
func Stamp(ev otrace.Event) otrace.Event {
	if ev.Stamp == 0 {
		ev.Stamp = Now()
	}
	return ev
}

// LagSeconds is the current lag of a stage behind ev's producer stamp,
// in seconds; zero when the event is unstamped.
func LagSeconds(ev otrace.Event) float64 {
	if ev.Stamp == 0 {
		return 0
	}
	return lagSeconds(Now(), ev.Stamp)
}

// lagSeconds is now − stamp in seconds, floored at zero.
func lagSeconds(now, stamp int64) float64 {
	if now < stamp {
		return 0
	}
	return float64(now-stamp) / float64(time.Second)
}
