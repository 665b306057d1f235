package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// span is one timed call the benchmark made into a layer. Spans of one
// operation (a batch, a sampled event, a job) share Trace; Parent is the
// enclosing span's ID, 0 for the operation's root.
type span struct {
	Trace  int64  `json:"trace_id"`
	ID     int    `json:"span_id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog collects spans. The workloads record raw timestamps into
// preallocated per-operation slots while they run and turn them into
// spans here once the run is over, so tracing adds no allocation or
// locking to the measured path.
type spanLog struct {
	spans []span
	ops   int // operations traced
}

// add records a span and returns its ID for use as a parent. A span
// whose end precedes its start (two stages racing on different
// goroutines) is clamped to zero length.
func (l *spanLog) add(trace int64, parent int, name string, start, end int64) int {
	if end < start {
		end = start
	}
	l.spans = append(l.spans, span{Trace: trace, ID: len(l.spans) + 1, Parent: parent,
		Name: name, Start: start, End: end})
	return len(l.spans)
}

// selfTimes sums each layer's self time: a span's duration minus the
// part of it that its child spans cover.
func (l *spanLog) selfTimes() map[string]int64 {
	children := make(map[int][]span)
	for _, s := range l.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[string]int64)
	for _, s := range l.spans {
		self[s.Name] += (s.End - s.Start) - covered(s, children[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, k int) bool { return kids[i].Start < kids[k].Start })
	var total int64
	curS, curE := int64(0), int64(-1)
	flush := func() {
		if curE > curS {
			total += curE - curS
		}
	}
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if s > curE {
			flush()
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	flush()
	return total
}

// write dumps the spans as JSON lines.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("spans: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	return f.Close()
}

// printLayers prints each layer's self time per operation, the residual
// between their sum and the untraced figure the spans decompose, and
// the tracing overhead (traced figure minus untraced figure). It
// returns the residual and the overhead as fractions of the untraced
// figure.
func (l *spanLog) printLayers(w io.Writer, figure string, untraced, traced float64) (residual, overhead float64) {
	self := l.selfTimes()
	names := make([]string, 0, len(self))
	var sum int64
	for n, v := range self {
		names = append(names, n)
		sum += v
	}
	sort.Slice(names, func(i, k int) bool { return self[names[i]] > self[names[k]] })
	ops := float64(max(l.ops, 1))
	fmt.Fprintf(w, "  %-22s %14s %7s   (%d traced operations, %d spans)\n", "layer", "self ms/op", "share", l.ops, len(l.spans))
	for _, n := range names {
		fmt.Fprintf(w, "  %-22s %14.4f %6.1f%%\n", n, float64(self[n])/1e6/ops, 100*float64(self[n])/float64(max(sum, 1)))
	}
	perOp := float64(sum) / 1e6 / ops
	residual = (perOp - untraced) / untraced
	overhead = (traced - untraced) / untraced
	fmt.Fprintf(w, "  %-22s %14.4f         %s untraced %.4f ms: residual %+.1f%%\n",
		"Σ self", perOp, figure, untraced, 100*residual)
	fmt.Fprintf(w, "  tracing overhead: %s traced %.4f ms vs untraced %.4f ms (%+.1f%%)\n",
		figure, traced, untraced, 100*overhead)
	return residual, overhead
}

// spanPath names a run's span dump.
func spanPath(dir, workload string, seed int64) string {
	return filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed))
}
