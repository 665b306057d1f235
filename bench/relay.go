package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"netprobe/internal/core"
	"netprobe/internal/loss"
	"netprobe/internal/obs"
	"netprobe/internal/online"
	"netprobe/internal/otrace"
	"netprobe/internal/pipestat"
	"netprobe/internal/runner"
	"netprobe/internal/source"
)

// relay is the receiving half of the event path, wired the way
// cmd/netdyn-relay wires it: source.Serve feeding a two-shard
// online.Pool whose shards run the default analyzers and a
// pipestat.Monitor, books kept by the relay chain of a fresh ledger.
// Two benchmark analyzers bracket each shard's list: "bench.first"
// (traced runs only) sees each event before any analyzer does, and
// "bench.last" after all of them; in traced runs every analyzer in
// between is wrapped in a timer.
type relay struct {
	srv      *source.Server
	pool     *online.Pool
	chain    *pipestat.Chain
	monitors []*pipestat.Monitor
	shards   []*shardProbe
}

// hook is a benchmark analyzer's callback: the shard it runs on, the
// event, and the wall clock (Unix ns) when the analyzer received it.
type hook func(shard int, ev otrace.Event, now int64)

// shardProbe is one shard's benchmark-side state. The engine goroutine
// of the shard alone writes it; handled publishes those writes.
type shardProbe struct {
	timed   []*timedAnalyzer
	handled atomic.Int64 // events bench.last has seen
}

func newRelay(traced bool, first, last hook) (*relay, error) {
	r := &relay{}
	reg := obs.NewRegistry()
	r.chain = pipestat.NewLedger(reg).Chain("relay")
	r.pool = online.NewPool(workers, 0, func(shard int) []online.Analyzer {
		p := &shardProbe{}
		r.shards = append(r.shards, p)
		mon := pipestat.NewMonitor(r.chain)
		r.monitors = append(r.monitors, mon)
		set := append(online.DefaultAnalyzers(reg), online.Analyzer(mon))
		if traced {
			for i, a := range set {
				t := &timedAnalyzer{Analyzer: a}
				p.timed = append(p.timed, t)
				set[i] = t
			}
			set = append([]online.Analyzer{&probeAnalyzer{name: "bench.first", shard: shard, fn: first}}, set...)
		}
		return append(set, &probeAnalyzer{name: "bench.last", shard: shard, fn: last, handled: &p.handled})
	})
	// Every NewMonitor replaces the chain's "analyzers" account, so the
	// summed one goes in after the pool exists (as in cmd/netdyn-relay).
	r.chain.Applied("analyzers", func() int64 {
		var n int64
		for _, m := range r.monitors {
			n += m.Applied()
		}
		return n
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	if r.srv, err = source.Serve(ln, source.ServerConfig{Sink: r.pool, Grace: -1}); err != nil {
		ln.Close()
		return nil, err
	}
	r.chain.Produced("ingress", func() int64 {
		delivered, dropped := r.srv.Totals()
		return delivered + dropped
	})
	r.chain.Dropped("queue", func() int64 { _, dropped := r.srv.Totals(); return dropped })
	r.chain.Dropped("bus", r.pool.Dropped)
	return r, nil
}

func (r *relay) addr() string { return r.srv.Addr().String() }

// handled is how many events every analyzer of the pool has handled.
func (r *relay) handled() int64 {
	var n int64
	for _, p := range r.shards {
		n += p.handled.Load()
	}
	return n
}

// drain waits until the analyzers have handled want events, failing
// after timeout or as soon as the pool drops one.
func (r *relay) drain(want int64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for r.handled() < want {
		if d := r.pool.Dropped(); d > 0 {
			return fmt.Errorf("relay: engine pool dropped %d events", d)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("relay: analyzers handled %d of %d events within %v", r.handled(), want, timeout)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// checkLedger checks that the relay chain balances with nothing
// dropped and that want events entered it; it returns the events
// unaccounted for or dropped.
func (r *relay) checkLedger(out *outcome, want int64) int64 {
	s := r.chain.Snapshot()
	var dropped int64
	for _, n := range s.Dropped {
		dropped += n
	}
	lost := dropped + max(s.Unaccounted, 0) + max(want-s.Produced, 0)
	out.check("ledger", lost == 0 && s.Unaccounted == 0 && s.Produced == want, fmt.Sprintf(
		"produced %d (want %d), applied %d, dropped %d, unaccounted %d",
		s.Produced, want, s.Produced-dropped-s.Unaccounted, dropped, s.Unaccounted))
	return lost
}

// analyzerCosts reports each timed analyzer's mean cost per event
// across shards.
func (r *relay) analyzerCosts(layers map[string]float64) {
	metric := map[string]string{
		"loss":     "online.loss_ns_per_event",
		"phase":    "online.phase_ns_per_event",
		"workload": "online.workload_ns_per_event",
		"pipeline": "pipestat.monitor_ns_per_event",
	}
	ns, n := map[string]int64{}, map[string]int64{}
	for _, p := range r.shards {
		for _, t := range p.timed {
			ns[t.Name()] += t.ns
			n[t.Name()] += t.n
		}
	}
	for name, m := range metric {
		layers[m] = float64(ns[name]) / float64(max(n[name], 1))
	}
	var most, total int64
	for _, p := range r.shards {
		h := p.handled.Load()
		most, total = max(most, h), total+h
	}
	layers["online.shard_skew"] = float64(most) * float64(len(r.shards)) / float64(max(total, 1))
}

func (r *relay) close() {
	r.srv.Close() //nolint:errcheck // listener teardown
	r.pool.Close()
	r.pool.Wait()
}

// probeAnalyzer is a benchmark analyzer in the pool's analyzer list.
type probeAnalyzer struct {
	name    string
	shard   int
	fn      hook
	handled *atomic.Int64 // bench.last only
}

func (p *probeAnalyzer) Name() string { return p.name }

func (p *probeAnalyzer) HandleEvent(ev otrace.Event) {
	p.fn(p.shard, ev, time.Now().UnixNano())
	if p.handled != nil {
		p.handled.Add(1)
	}
}

func (p *probeAnalyzer) Snapshot() any { return nil }

// timedAnalyzer times another analyzer's HandleEvent. It forwards
// MergeSnapshots, so the pool still merges the wrapped analyzer's
// per-shard snapshots.
type timedAnalyzer struct {
	online.Analyzer
	ns, n int64
}

func (t *timedAnalyzer) HandleEvent(ev otrace.Event) {
	start := mono()
	t.Analyzer.HandleEvent(ev)
	t.ns += mono() - start
	t.n++
}

func (t *timedAnalyzer) MergeSnapshots(parts []any) any {
	if m, ok := t.Analyzer.(online.Merger); ok {
		return m.MergeSnapshots(parts)
	}
	return parts
}

// The relay-ingest workload: recorded probe-lifecycle streams replayed
// open-loop through two source.Sender connections into the relay.
const (
	ingestStreams = 8
	ingestTags    = 4 // each stream is replayed under this many job tags
	ingestJobs    = ingestStreams * ingestTags
	// ingestBatch events are due together every millisecond, split
	// evenly over the connections: 150k events/s, about 30% of what
	// the relay absorbs on two cores before its pool starts dropping.
	ingestBatch   = 150
	ingestPerConn = ingestBatch / workers
	ingestDelta   = 20 * time.Millisecond
	// eventsPerProbe is a probe's lifecycle on the ten-hop INRIA path:
	// sent, ten forward and ten return enqueues, echo and rtt.
	eventsPerProbe = 23
	// windowBatches is how many batches are due in one window.
	windowBatches = int32(windowLen / time.Millisecond)
	// Traced runs follow the rtt event of every ingestSample-th probe.
	ingestSample = 8
)

var relayIngest = &workloadDef{
	name:  "relay-ingest",
	why:   "the relay data path alone: recorded streams replayed open-loop at 150k events/s over 2 connections into the sharded analyzers",
	setup: setupIngest,
}

// sendRef names one event of the replay: a job and a position in the
// job's stream.
type sendRef struct {
	job uint8
	pos uint32
}

type ingest struct {
	streams  []*stream     // recorded, job brackets included
	traces   []*core.Trace // what each stream's sim returned, for the loss check
	tags     [ingestJobs]string
	order    [workers][]sendRef  // connection c replays jobs c, c+workers, ... round-robin
	rttBatch [ingestJobs][]int32 // job → probe → millisecond its rtt event is due in
	events   int64
	warm     int64

	relay   *relay
	senders [workers]*source.Sender
	t0      atomic.Int64      // wall clock the first batch is due
	lat     [workers][]sample // per shard: every rtt event's latency

	// Traced runs: per sampled probe, wall-clock instants along its rtt
	// event's path, and the generator's lateness per batch.
	slot                                  [ingestJobs]int
	emitStart, emitEnd, stamp, first, end []int64
	late                                  [workers][]int64
}

func setupIngest(o runOpts) (instance, error) {
	in := &ingest{}
	// Streams long enough that the 32 jobs fill the measurement at the
	// fixed rate.
	probes := o.seconds * ingestBatch * 1000 / ingestJobs / eventsPerProbe
	simDur := max(time.Duration(probes*float64(ingestDelta)), time.Second)
	jobs := make([]runner.Job, ingestStreams)
	for i := range jobs {
		jobs[i] = runner.Job{Label: fmt.Sprintf("stream-%d", i),
			Config: core.INRIAPreset().Config(ingestDelta, simDur, 0)}
	}
	rec := make(recorder, ingestStreams)
	for i := range rec {
		rec[i] = newStream()
	}
	results := runner.Run(context.Background(), o.seed, jobs, runner.Workers(workers), runner.Sink(rec))
	if err := runner.FirstErr(results); err != nil {
		return nil, err
	}
	in.streams = rec
	for _, r := range results {
		in.traces = append(in.traces, r.Trace)
	}

	nslots := 0
	for j := range in.tags {
		in.tags[j] = fmt.Sprintf("ri-%02d", j)
		in.rttBatch[j] = make([]int32, in.traces[j/ingestTags].Len())
		in.slot[j] = nslots
		nslots += (len(in.rttBatch[j]) + ingestSample - 1) / ingestSample
	}
	for c := 0; c < workers; c++ {
		cur := make([]int, ingestJobs)
		for more := true; more; {
			more = false
			for j := c; j < ingestJobs; j += workers {
				s := in.streams[j/ingestTags]
				if cur[j] == len(s.packed) {
					continue
				}
				if ev := s.event(cur[j]); ev.Ev == otrace.KindRTT {
					in.rttBatch[j][ev.Seq] = int32(len(in.order[c]) / ingestPerConn)
				}
				in.order[c] = append(in.order[c], sendRef{uint8(j), uint32(cur[j])})
				cur[j]++
				more = true
			}
		}
		in.events += int64(len(in.order[c]))
		in.lat[c] = make([]sample, 0, len(in.order[c])/eventsPerProbe+16)
	}
	if o.traced {
		in.emitStart, in.emitEnd = make([]int64, nslots), make([]int64, nslots)
		in.stamp, in.first, in.end = make([]int64, nslots), make([]int64, nslots), make([]int64, nslots)
		for c := range in.late {
			in.late[c] = make([]int64, 0, len(in.order[c])/ingestPerConn+1)
		}
	}

	var err error
	if in.relay, err = newRelay(o.traced, in.onFirst, in.onLast); err != nil {
		return nil, err
	}
	for c := range in.senders {
		if in.senders[c], err = source.Dial(in.relay.addr()); err != nil {
			in.close()
			return nil, err
		}
	}
	// Warm-up: each connection sends the start of stream 0 under a tag
	// of its own, and waits for the analyzers to handle it.
	head := min(len(in.streams[0].packed), 2000)
	for c, s := range in.senders {
		tag := fmt.Sprintf("warm-%d", c)
		for i := 0; i < head; i++ {
			ev := in.streams[0].event(i)
			ev.Job = tag
			s.Emit(ev)
		}
		in.warm += int64(head)
	}
	if err := in.relay.drain(in.warm, 30*time.Second); err != nil {
		in.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return in, nil
}

// recorder packs each recorded job's events into that job's stream;
// every job runs on one worker, so the streams need no lock.
type recorder []*stream

func (r recorder) Emit(ev otrace.Event) { r[ev.Index].add(ev) }

// stream is one recorded event stream, stored without pointers so that
// holding a few million events costs the garbage collector nothing to
// scan and the relay's own collections stay what they would be: the
// probe-lifecycle fields inline, strings as indexes into a per-stream
// table, and the few events carrying anything more (run and job
// metadata) kept whole on the side. Job and Index are dropped; the
// replay sets its own.
type stream struct {
	packed []packedEvent
	strs   []string
	index  map[string]uint8
	whole  []otrace.Event
}

type packedEvent struct {
	t, sent, recv, rtt   int64
	seq, qlen            int32
	whole                int32 // index into stream.whole, or -1
	ev, flow, queue, dir uint8
}

func newStream() *stream { return &stream{index: map[string]uint8{}} }

func (s *stream) add(ev otrace.Event) {
	ev.Job, ev.Index = "", 0
	p := packedEvent{t: ev.T, sent: ev.SentNs, recv: ev.RecvNs, rtt: ev.RTTNs,
		seq: int32(ev.Seq), qlen: int32(ev.QLen), whole: -1}
	var okEv, okFlow, okQueue, okDir bool
	p.ev, okEv = s.intern(string(ev.Ev))
	p.flow, okFlow = s.intern(ev.Flow)
	p.queue, okQueue = s.intern(ev.Queue)
	p.dir, okDir = s.intern(ev.Dir)
	if !(okEv && okFlow && okQueue && okDir) || s.unpack(p) != ev {
		p.whole = int32(len(s.whole))
		s.whole = append(s.whole, ev)
	}
	s.packed = append(s.packed, p)
}

// intern returns str's index in the table, false once the table is full.
func (s *stream) intern(str string) (uint8, bool) {
	if i, ok := s.index[str]; ok {
		return i, true
	}
	if len(s.strs) > 255 {
		return 0, false
	}
	s.index[str] = uint8(len(s.strs))
	s.strs = append(s.strs, str)
	return uint8(len(s.strs) - 1), true
}

func (s *stream) unpack(p packedEvent) otrace.Event {
	if p.whole >= 0 {
		return s.whole[p.whole]
	}
	return otrace.Event{T: p.t, Ev: otrace.Kind(s.strs[p.ev]), Seq: int(p.seq), Flow: s.strs[p.flow],
		Queue: s.strs[p.queue], Dir: s.strs[p.dir], QLen: int(p.qlen), SentNs: p.sent, RecvNs: p.recv, RTTNs: p.rtt}
}

// event is the i-th event of the stream.
func (s *stream) event(i int) otrace.Event { return s.unpack(s.packed[i]) }

// jobOf maps a replay tag "ri-NN" to its job, -1 for other tags.
func jobOf(tag string) int {
	if len(tag) != 5 || tag[:3] != "ri-" {
		return -1
	}
	return int(tag[3]-'0')*10 + int(tag[4]-'0')
}

// sampleSlot is a probe's slot in the traced arrays, -1 when the probe
// is not sampled.
func (in *ingest) sampleSlot(j, seq int) int {
	if seq%ingestSample != 0 {
		return -1
	}
	return in.slot[j] + seq/ingestSample
}

func (in *ingest) due(j, seq int) int64 {
	return in.t0.Load() + int64(in.rttBatch[j][seq])*int64(time.Millisecond)
}

func (in *ingest) onFirst(_ int, ev otrace.Event, now int64) {
	if ev.Ev != otrace.KindRTT {
		return
	}
	if j := jobOf(ev.Job); j >= 0 {
		if s := in.sampleSlot(j, ev.Seq); s >= 0 {
			in.stamp[s], in.first[s] = ev.Stamp, now
		}
	}
}

func (in *ingest) onLast(shard int, ev otrace.Event, now int64) {
	if ev.Ev != otrace.KindRTT {
		return
	}
	j := jobOf(ev.Job)
	if j < 0 {
		return
	}
	in.lat[shard] = append(in.lat[shard], sample{in.rttBatch[j][ev.Seq] / windowBatches, now - in.due(j, ev.Seq)})
	if in.end != nil {
		if s := in.sampleSlot(j, ev.Seq); s >= 0 {
			in.end[s] = now
		}
	}
}

// generate replays connection c's share: every millisecond from t0 it
// sends the next ingestPerConn events, however late it is running.
func (in *ingest) generate(c int, t0 int64, traced bool) {
	defer pace()()
	s := in.senders[c]
	order := in.order[c]
	for k := 0; k < len(order); k += ingestPerConn {
		due := t0 + int64(k/ingestPerConn)*int64(time.Millisecond)
		now := sleepUntil(due)
		if traced {
			in.late[c] = append(in.late[c], now-due)
		}
		for _, ref := range order[k:min(k+ingestPerConn, len(order))] {
			ev := in.streams[ref.job/ingestTags].event(int(ref.pos))
			ev.Job, ev.Index = in.tags[ref.job], int(ref.job)
			if traced && ev.Ev == otrace.KindRTT {
				if slot := in.sampleSlot(int(ref.job), ev.Seq); slot >= 0 {
					in.emitStart[slot] = time.Now().UnixNano()
					s.Emit(ev)
					in.emitEnd[slot] = time.Now().UnixNano()
					continue
				}
			}
			s.Emit(ev)
		}
	}
}

func (in *ingest) measure(o runOpts) (*outcome, error) {
	out := &outcome{op: "events", sampled: "rtt events", layers: map[string]float64{}}
	var m0, m1 runtime.MemStats
	if o.traced {
		runtime.ReadMemStats(&m0)
	}
	// The windows and the events due in each.
	per := int64(windowBatches) * ingestPerConn
	var ops []int64
	for c := range in.order {
		for w, left := 0, int64(len(in.order[c])); left > 0; w, left = w+1, left-per {
			if w == len(ops) {
				ops = append(ops, 0)
			}
			ops[w] += min(left, per)
		}
	}
	marks := make([]time.Duration, 0, len(ops)+1)
	t0 := time.Now().UnixNano() + int64(2*time.Millisecond)
	in.t0.Store(t0)
	var wg sync.WaitGroup
	for c := 0; c < workers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			in.generate(c, t0, o.traced)
		}()
	}
	for w := range ops {
		sleepUntil(t0 + int64(w)*int64(windowLen))
		marks = append(marks, cpuTime())
	}
	wg.Wait()
	drained := in.relay.drain(in.warm+in.events, 30*time.Second)
	marks = append(marks, cpuTime())
	if o.traced {
		runtime.ReadMemStats(&m1)
	}
	out.ops = in.events
	fmt.Printf("  replayed %d events of %d jobs over %.1f s\n", in.events, ingestJobs,
		float64(time.Now().UnixNano()-t0)/1e9)
	if drained != nil {
		out.check("drain", false, drained.Error())
		out.failed = in.events
		return out, nil
	}

	var sent int64
	for _, s := range in.senders {
		sent += s.Sent()
	}
	out.failed = in.relay.checkLedger(out, in.warm+in.events) + (in.warm + in.events - sent)
	out.failed += in.checkLoss(out)
	out.windows = openWindows(marks, ops, in.lat[:]...)
	if !o.traced {
		return out, nil
	}

	var emit, wire, queue, late []int64
	for j := range in.tags {
		for seq := 0; seq < len(in.rttBatch[j]); seq += ingestSample {
			s := in.sampleSlot(j, seq)
			if in.end[s] == 0 {
				continue // a lost probe has no rtt event
			}
			due := in.due(j, seq)
			emit = append(emit, in.emitEnd[s]-in.emitStart[s])
			wire = append(wire, in.stamp[s]-due)
			queue = append(queue, in.first[s]-in.stamp[s])
			root := out.log.add(int64(s), 0, "event", due, in.end[s])
			out.log.add(int64(s), root, "gen.late", due, in.emitStart[s])
			out.log.add(int64(s), root, "source.emit", in.emitStart[s], in.emitEnd[s])
			out.log.add(int64(s), root, "source.wire", in.emitEnd[s], in.stamp[s])
			out.log.add(int64(s), root, "online.queue", in.stamp[s], in.first[s])
			out.log.add(int64(s), root, "online.analyze", in.first[s], in.end[s])
			out.log.ops++
		}
	}
	setPercentiles(out.layers, "source.emit_ns", emit, 1, 0.5, 0.99)
	setPercentiles(out.layers, "source.wire_lag_us", wire, 1e3, 0.5, 0.99)
	setPercentiles(out.layers, "online.queue_wait_us", queue, 1e3, 0.5, 0.99)
	for _, l := range in.late {
		late = append(late, l...)
	}
	out.layers["gen.late_ms.p99"], _ = tail(nsToUnit(late, 1e6), 0.99)
	in.relay.analyzerCosts(out.layers)
	evs := make([]otrace.Event, len(in.streams[0].packed))
	for i := range evs {
		evs[i] = in.streams[0].event(i)
	}
	for k, v := range wireCosts(evs) {
		out.layers[k] = v
	}
	perOp := func(v uint64) float64 { return float64(v) / float64(in.events) }
	out.layers["process.allocs_per_op"] = perOp(m1.Mallocs - m0.Mallocs)
	out.layers["process.bytes_per_op"] = perOp(m1.TotalAlloc - m0.TotalAlloc)
	out.layers["gc.cycles"] = perOp(uint64(m1.NumGC - m0.NumGC))
	return out, nil
}

// checkLoss compares each job's merged loss snapshot with
// loss.AnalyzeTrace of the trace its stream came from, and returns the
// events of the jobs that differ.
func (in *ingest) checkLoss(out *outcome) int64 {
	snap, _ := in.relay.pool.SnapshotOf("loss")
	rows, _ := snap.([]online.LossSnapshot)
	got := make(map[string]online.LossSnapshot, len(rows))
	for _, r := range rows {
		got[r.Job] = r
	}
	var bad, failed int64
	for j, tag := range in.tags {
		row, ok := got[tag]
		if !ok || !sameLoss(row, loss.AnalyzeTrace(in.traces[j/ingestTags])) {
			bad++
			failed += int64(len(in.streams[j/ingestTags].packed))
		}
	}
	out.check("loss", bad == 0, fmt.Sprintf("%d of %d jobs' merged loss snapshots equal loss.AnalyzeTrace of their source trace",
		int64(len(in.tags))-bad, len(in.tags)))
	return failed
}

func sameLoss(got online.LossSnapshot, want loss.Stats) bool {
	same := func(p *float64, v float64, defined bool) bool {
		if !defined || v != v || v > 1e308 {
			return p == nil
		}
		return p != nil && *p == v
	}
	return got.Probes == want.N && got.Lost == want.Lost && got.ULP == want.ULP &&
		got.Runs == len(want.Runs) && got.Excluded == 0 &&
		same(got.CLP, want.CLP, true) && same(got.PLG, want.PLG, true) &&
		same(got.MeanRun, want.MeanRun, len(want.Runs) > 0)
}

// wireCosts measures the binary wire codec alone over one recorded
// stream: otrace.NewFrameWriter into memory, then otrace.NewFrameReader
// back out.
func wireCosts(evs []otrace.Event) map[string]float64 {
	var buf bytes.Buffer
	fw := otrace.NewFrameWriter(&buf)
	t0 := mono()
	for _, ev := range evs {
		if err := fw.WriteEvent(ev); err != nil {
			panic(err) // recorded events always fit a frame
		}
	}
	if err := fw.Flush(); err != nil {
		panic(err) // bytes.Buffer never fails
	}
	enc := mono() - t0
	size := buf.Len()
	fr, err := otrace.NewFrameReader(&buf)
	if err != nil {
		panic(err)
	}
	t0 = mono()
	for {
		if _, err := fr.Next(); err == io.EOF {
			break
		} else if err != nil {
			panic(err)
		}
	}
	dec := mono() - t0
	n := float64(len(evs))
	return map[string]float64{
		"otrace.wire_encode_ns_per_event": float64(enc) / n,
		"otrace.wire_decode_ns_per_event": float64(dec) / n,
		"otrace.wire_bytes_per_event":     float64(size) / n,
	}
}

func (in *ingest) close() {
	for _, s := range in.senders {
		if s != nil {
			s.Close() //nolint:errcheck // stream teardown
		}
	}
	if in.relay != nil {
		in.relay.close()
	}
}
