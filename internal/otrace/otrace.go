// Package otrace records per-probe and per-job lifecycle events as a
// stream of timestamped JSONL records — the observability counterpart
// of package trace's end-of-run CSV files.
//
// The paper's method re-analyzes one probe trace through many lenses
// (phase plots, Lindley workload estimates, loss gaps). otrace makes
// that possible without a re-run: every probe's lifecycle — sent,
// enqueued at a hop, dropped, echoed, rtt computed — is captured as it
// happens, using one Event schema shared by the simulator (package
// core/sim, stamped with virtual time) and the real-network NetDyn
// tools (package netdyn, stamped with wall-clock offsets). A trace
// file therefore replays into exactly the core.Trace the run produced
// (see trace.FromEvents), and carries strictly more information: where
// each probe was delayed and where the lost ones died.
//
// JSONL is the one trace-file encoding: every trace file, from a
// runner job's to a relay's, is a Writer's output. The binary frame
// codec in wire.go (FrameWriter, FrameReader) is the relay wire and
// the coordinator's journal, not a trace archive; Read accepts both
// so the journal replays through ReadFile.
//
// Sinks are race-safe. Writer serializes events synchronously through
// a mutex, so a single-goroutine producer (the simulator) gets
// byte-deterministic files; Bounded decouples a latency-sensitive
// producer (the real-network prober) from the writer with a bounded
// queue and a drop counter instead of backpressure.
package otrace

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
)

// Kind names a lifecycle event.
type Kind string

// The event kinds. Probe-level kinds carry Seq and sim- or wall-time
// stamps; run- and job-level kinds carry metadata and deterministic
// (zero) stamps so trace files stay byte-identical across runs.
const (
	// KindRunStart opens a trace: experiment metadata (name, δ,
	// packet sizes, bottleneck, clock resolution, probe count).
	KindRunStart Kind = "run_start"
	// KindProbeSent marks probe Seq entering the network at T.
	KindProbeSent Kind = "probe_sent"
	// KindEnqueue marks probe Seq accepted by queue Queue (entering
	// service or the waiting room) with QLen packets in system.
	KindEnqueue Kind = "enqueue"
	// KindDrop marks probe Seq dropped by queue Queue (buffer full).
	KindDrop Kind = "drop"
	// KindEcho marks probe Seq turning around at the echo host.
	KindEcho Kind = "echo"
	// KindRTT marks probe Seq's round trip completing: rtt_n is
	// computed and the sample is final.
	KindRTT Kind = "rtt"
	// KindJobStart and KindJobFinish bracket one runner job's trace
	// file; finish carries the probe/loss totals.
	KindJobStart  Kind = "job_start"
	KindJobFinish Kind = "job_finish"
	// KindFault marks an injected impairment (internal/faultinject):
	// Fault names the fault kind (drop, duplicate, reorder, delay,
	// corrupt, send_error, blackhole, recv_drop, recv_delay); delay,
	// reorder, and recv_delay faults carry the added latency in DurNs.
	KindFault Kind = "fault"
	// KindGap marks an outage window recorded by the supervised prober
	// (or a sim blackhole): the Probes probes starting at Seq are
	// excluded from loss statistics rather than counted as paper-style
	// random loss. T is the window start and DurNs its length.
	KindGap Kind = "gap"
	// KindHeartbeat is a liveness beacon on a wire stream
	// (internal/source): SentNs carries the sender's wall clock (Unix
	// nanoseconds), letting the receiver estimate per-source clock skew
	// and last-contact age even while no probe events flow. Heartbeats
	// are plumbing, not measurements: relays consume them for health
	// tracking and do not forward them to analyzers or trace files.
	KindHeartbeat Kind = "hb"
	// KindAlert marks a drift-rule transition in the time-series store
	// (internal/tshist): Name is the rule, Flow the metric series it
	// matched, Fault "fire" or "clear", Value the breaching sample, and
	// SentNs the wall clock of the transition. Alerts are judgements
	// about the measurement plane, not measurements: they go to trace
	// files and logs but never into analyzer pipelines, so they cannot
	// unbalance the conservation ledger.
	KindAlert Kind = "alert"

	// The control-frame family (internal/coord). The fleet control plane
	// rides the same wire framing as measurement events — a coordinator
	// connection carries these kinds instead of probe lifecycles — but
	// control frames are plumbing like heartbeats: they never enter
	// analyzer pipelines, trace files, or the conservation ledger. Field
	// reuse is documented per kind; because Kind is a self-describing
	// string, adding this family needs no wire-format version bump (see
	// wire.go): an old reader decodes the frames and simply does not
	// recognize the kinds.
	//
	// KindCtrlRegister is an agent announcing itself to a coordinator:
	// Name is the agent's name, Count its job capacity.
	KindCtrlRegister Kind = "ctrl_register"
	// KindCtrlJob is a coordinator pushing a job to an agent: Job is the
	// instance id, Name the spec name, Dir the execution mode ("probe",
	// "sim", …), Flow the target (address or preset), DeltaNs the probe
	// interval, PayloadBytes/Count/DurNs the packet size, probe count,
	// and duration, Fault the JSON fault plan, and Seed the job seed.
	KindCtrlJob Kind = "ctrl_job"
	// KindCtrlAccept is an agent acknowledging that it started a job:
	// Job is the instance id.
	KindCtrlAccept Kind = "ctrl_accept"
	// KindCtrlComplete is an agent reporting a finished job: Job is the
	// instance id, Probes/Losses the result totals, DurNs the wall-clock
	// execution time, and Fault the error message (empty on success).
	// As a journal record it marks settlement, and Name carries the
	// settling agent when that is not the dispatched one.
	KindCtrlComplete Kind = "ctrl_complete"
	// KindCtrlAck is a coordinator acknowledging that it settled (or
	// deduplicated) a ctrl_complete: Job is the instance id. Agents
	// retain unacked completions and resend them after a reconnect, so
	// a completion that raced a coordinator outage still settles.
	KindCtrlAck Kind = "ctrl_ack"

	// The journal-frame family (internal/coord's write-ahead journal).
	// These record job-table *transitions* rather than crossing a
	// connection: a coordinator with -journal appends one frame per
	// transition to a .otr file and replays them on restart. Same
	// framing, same no-version-bump rule as the ctrl_* family above.
	//
	// KindCtrlSubmit records an instance entering the table: Job is the
	// instance id, Index the recurrence index (0 for one-shots), SentNs
	// the submission wall clock, and the spec fields as in KindCtrlJob.
	KindCtrlSubmit Kind = "ctrl_submit"
	// KindCtrlDispatch records an instance assigned to an agent: Job is
	// the instance id, Name the agent, Count the attempt number.
	KindCtrlDispatch Kind = "ctrl_dispatch"
	// KindCtrlRequeue records a running instance returned to the queue
	// (agent lost, lease expired, execution error with attempts left):
	// Job is the instance id, Fault the reason, Probes/Losses the ended
	// attempt's totals.
	KindCtrlRequeue Kind = "ctrl_requeue"
	// KindCtrlFail records an instance failing terminally: Job is the
	// instance id, Fault the final error, Probes/Losses the last
	// attempt's totals.
	KindCtrlFail Kind = "ctrl_fail"
)

// Event is one trace record. T is nanoseconds from the start of the
// run: virtual time for simulated probes, wall-clock offset for real
// ones; run- and job-level events use 0 so files are deterministic.
// Seq is only meaningful on probe-level events (KindProbeSent through
// KindRTT); field groups beyond (T, Ev, Seq) are populated per kind
// and omitted otherwise.
type Event struct {
	T   int64 `json:"t"`
	Ev  Kind  `json:"ev"`
	Seq int   `json:"seq"`

	// Probe-level fields.
	Flow   string `json:"flow,omitempty"`
	Queue  string `json:"queue,omitempty"`
	Dir    string `json:"dir,omitempty"` // "fwd" or "ret"
	QLen   int    `json:"qlen,omitempty"`
	SentNs int64  `json:"sent_ns,omitempty"`
	RecvNs int64  `json:"recv_ns,omitempty"`
	RTTNs  int64  `json:"rtt_ns,omitempty"`

	// Fault/gap fields (KindFault, KindGap).
	Fault string `json:"fault,omitempty"`
	DurNs int64  `json:"dur_ns,omitempty"`

	// Run metadata (KindRunStart), mirroring the CSV header of
	// package trace.
	Name          string `json:"name,omitempty"`
	DeltaNs       int64  `json:"delta_ns,omitempty"`
	PayloadBytes  int    `json:"payload_bytes,omitempty"`
	WireBytes     int    `json:"wire_bytes,omitempty"`
	BottleneckBps int64  `json:"bottleneck_bps,omitempty"`
	ClockResNs    int64  `json:"clock_res_ns,omitempty"`
	Count         int    `json:"count,omitempty"`

	// Job bracketing (KindJobStart/KindJobFinish).
	Job    string `json:"job,omitempty"`
	Index  int    `json:"index,omitempty"`
	Seed   int64  `json:"seed,omitempty"`
	Probes int    `json:"probes,omitempty"`
	Losses int    `json:"losses,omitempty"`

	// Value carries a float payload for kinds that need one (KindAlert:
	// the sample that breached or cleared the rule).
	Value float64 `json:"value,omitempty"`

	// Stamp is the wall-clock instant (Unix nanoseconds) the event
	// entered this process's pipeline, set by the first stage that sees
	// it (internal/pipestat). It is deliberately excluded from both the
	// JSONL and the binary wire encodings: it exists only so downstream
	// in-process stages can measure their lag behind the producer, and
	// serializing it would break the byte-determinism of trace files and
	// wire streams.
	Stamp int64 `json:"-"`
}

// Sink receives trace events. Implementations must be safe for
// concurrent Emit calls.
type Sink interface {
	Emit(Event)
}

// Writer streams events to an io.Writer as JSONL, one event per line,
// in Emit order. Emit is serialized by a mutex, so a single-goroutine
// producer (the simulator) produces byte-identical files for
// identical event sequences; concurrent producers interleave whole
// lines, never partial ones. Encoding errors are sticky and reported
// by Close.
type Writer struct {
	mu  sync.Mutex
	bw  *bufio.Writer
	c   io.Closer
	err error
	n   atomic.Int64

	// line is the JSONL record buffer, reused by every Emit under mu so
	// steady-state encoding allocates nothing.
	line []byte
}

// writeBufSize is the Writer's write buffer. A traced sweep writes
// hundreds of megabytes of JSONL, and bufio's 4 KiB default would cost
// one write syscall per ~25 events.
const writeBufSize = 64 << 10

// NewWriter returns a Writer streaming to w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{bw: bufio.NewWriterSize(w, writeBufSize)}
}

// Create opens (truncating) a trace file at path and returns a Writer
// that closes it on Close.
func Create(path string) (*Writer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("otrace: %w", err)
	}
	w := NewWriter(f)
	w.c = f
	return w, nil
}

// Emit implements Sink.
func (w *Writer) Emit(ev Event) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return
	}
	line, err := appendJSON(w.line[:0], &ev)
	if err != nil {
		w.err = fmt.Errorf("otrace: encode event: %w", err)
		return
	}
	line = append(line, '\n')
	w.line = line
	if _, err := w.bw.Write(line); err != nil {
		w.err = fmt.Errorf("otrace: write event: %w", err)
		return
	}
	w.n.Add(1)
}

// Events reports how many events have been written so far.
func (w *Writer) Events() int64 { return w.n.Load() }

// Close flushes buffered events, closes the underlying file if the
// Writer owns one, and returns the first error encountered.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.bw.Flush(); err != nil && w.err == nil {
		w.err = fmt.Errorf("otrace: flush: %w", err)
	}
	if w.c != nil {
		if err := w.c.Close(); err != nil && w.err == nil {
			w.err = fmt.Errorf("otrace: close: %w", err)
		}
		w.c = nil
	}
	return w.err
}

// Bounded decouples producers from a slow downstream sink with a
// bounded in-memory queue drained by one background goroutine. Emit
// never blocks: when the queue is full the event is dropped and
// counted instead, which is the right trade for the real-network
// prober, whose send pacing must not wait on disk. Close drains the
// queue and stops the goroutine (it does not close the downstream
// sink).
type Bounded struct {
	ch      chan Event
	done    chan struct{}
	dropped atomic.Int64
	onDrop  func()
	once    sync.Once

	// mu makes Emit and Close safe to race: Emit sends under the read
	// lock, Close flips closed and closes ch under the write lock —
	// which waits out every in-flight send, so close(ch) never
	// interleaves with ch<- (a data race, not just a panic, in the Go
	// memory model). Emits arriving after the flip see closed and count
	// as drops without touching the channel.
	mu     sync.RWMutex
	closed bool
}

// NewBounded returns a Bounded sink forwarding to next with the given
// queue capacity (minimum 1).
func NewBounded(next Sink, capacity int) *Bounded {
	return NewBoundedCounted(next, capacity, nil)
}

// NewBoundedCounted is NewBounded with an external drop counter: each
// discarded event additionally calls onDrop (e.g. an obs counter's
// Inc), so queue overruns surface on /metrics as they happen instead
// of only in the end-of-run Dropped total. onDrop must be safe for
// concurrent calls; nil disables the callback.
func NewBoundedCounted(next Sink, capacity int, onDrop func()) *Bounded {
	if capacity < 1 {
		capacity = 1
	}
	b := &Bounded{
		ch:     make(chan Event, capacity),
		done:   make(chan struct{}),
		onDrop: onDrop,
	}
	go func() {
		defer close(b.done)
		for ev := range b.ch {
			next.Emit(ev)
		}
	}()
	return b
}

// Emit implements Sink; it drops the event (incrementing Dropped)
// instead of blocking when the queue is full or already closed. Every
// Emit — including ones racing Close — lands in exactly one account:
// delivered downstream or counted in Dropped.
func (b *Bounded) Emit(ev Event) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if b.closed {
		b.drop()
		return
	}
	select {
	case b.ch <- ev:
	default:
		b.drop()
	}
}

func (b *Bounded) drop() {
	b.dropped.Add(1)
	if b.onDrop != nil {
		b.onDrop()
	}
}

// Dropped reports how many events were discarded because the queue
// was full (or emitted after Close).
func (b *Bounded) Dropped() int64 { return b.dropped.Load() }

// Close drains queued events into the downstream sink and stops the
// background goroutine. It is idempotent and safe to call while other
// goroutines are still emitting (their events count as dropped once
// the flip is visible).
func (b *Bounded) Close() error {
	b.once.Do(func() {
		b.mu.Lock()
		b.closed = true
		b.mu.Unlock() // in-flight sends done; no new ones can start
		close(b.ch)
	})
	<-b.done
	return nil
}

// Discard is a Sink that ignores every event — the sink of last
// resort for code that requires a non-nil Sink. Multi drops it.
var Discard Sink = discardSink{}

type discardSink struct{}

func (discardSink) Emit(Event) {}

// Multi returns a Sink forwarding every event to each remaining sink
// in order. Nil sinks and Discard are dropped, so a composition that
// would only throw events away is nil and producers can skip building
// them; with one remaining sink Multi returns it unwrapped.
func Multi(sinks ...Sink) Sink {
	out := make(multiSink, 0, len(sinks))
	for _, s := range sinks {
		if s != nil && s != Discard {
			out = append(out, s)
		}
	}
	switch len(out) {
	case 0:
		return nil
	case 1:
		return out[0]
	}
	return out
}

type multiSink []Sink

func (m multiSink) Emit(ev Event) {
	for _, s := range m {
		s.Emit(ev)
	}
}

// ErrTruncated reports that a trace stream ended mid-record: a JSONL
// line half-written when the process died, or a frame cut short in a
// crashed coordinator's journal. Read delivers every decodable event
// before returning it, so callers can keep the prefix (check with
// errors.Is) instead of discarding the whole trace.
var ErrTruncated = errors.New("otrace: truncated trace")

// Read decodes an event stream, calling fn for every event in order.
// The encoding is detected by magic number: wire-framed streams
// ("OTR2"/"OTR1" magic — a coordinator journal) are frame-decoded, and
// anything else is parsed as JSONL. A malformed record or a corrupt or
// truncated stream stops the read after the last good event and
// returns an error wrapping ErrTruncated; an fn error stops it
// immediately and is returned as-is (wrapped with the record number).
func Read(r io.Reader, fn func(Event) error) error {
	br := bufio.NewReader(r)
	if magic, err := br.Peek(4); err == nil && isWireMagic(magic) {
		return readFrames(br, fn)
	}
	return readLines(br, fn)
}

// readFrames replays a wire-framed stream through fn. FrameReader
// errors already wrap ErrTruncated.
func readFrames(r io.Reader, fn func(Event) error) error {
	fr, err := NewFrameReader(r)
	if err != nil {
		return err
	}
	for {
		ev, err := fr.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := fn(ev); err != nil {
			return fmt.Errorf("otrace: frame %d: %w", fr.Events(), err)
		}
	}
}

// ReadFile opens path and replays its events through fn, whichever of
// Read's two encodings it holds.
func ReadFile(path string, fn func(Event) error) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("otrace: %w", err)
	}
	defer f.Close() //nolint:errcheck // read side
	if err := Read(f, fn); err != nil {
		return fmt.Errorf("otrace: %s: %w", path, err)
	}
	return nil
}

// ReadFiles replays a sequence of trace files through fn in order, as
// if they were one stream.
func ReadFiles(paths []string, fn func(Event) error) error {
	for _, p := range paths {
		if err := ReadFile(p, fn); err != nil {
			return err
		}
	}
	return nil
}

func readLines(r io.Reader, fn func(Event) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		text := sc.Bytes()
		if len(text) == 0 {
			continue
		}
		var ev Event
		if err := json.Unmarshal(text, &ev); err != nil {
			// A half-written record from a crashed writer; everything
			// before it has already been delivered.
			return fmt.Errorf("%w: line %d: %v", ErrTruncated, line, err)
		}
		if err := fn(ev); err != nil {
			return fmt.Errorf("otrace: line %d: %w", line, err)
		}
	}
	if err := sc.Err(); err != nil {
		// Scanner errors here are stream-level: a failing reader or an
		// oversized line from garbage data.
		return fmt.Errorf("%w: read: %v", ErrTruncated, err)
	}
	return nil
}
