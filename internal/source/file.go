package source

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"netprobe/internal/core"
	"netprobe/internal/otrace"
	"netprobe/internal/trace"
)

// FileSource replays recorded otrace JSONL files as a Source. Replay
// preserves event order across files (otrace.ReadFiles semantics) and
// checks ctx between events, so a cancelled replay stops promptly even
// on multi-gigabyte traces.
//
// A crash-truncated tail normally fails the replay with
// otrace.ErrTruncated after delivering every decodable event;
// AllowTruncated turns that into a clean stop instead, keeping the
// prefix — the recovery behavior the fault-injection chaos tests pin
// for live traces.
//
// FileSource implements Traced by reconstructing the run's core.Trace
// from the replayed events (trace.Collector). Streams that do not hold
// exactly one well-formed run (multi-job aggregates, event subsets)
// replay fine; Trace just stays nil.
type FileSource struct {
	// Label names the source; defaults to the first path.
	Label string
	// Paths are the trace files to replay, in order, as one stream.
	Paths []string
	// AllowTruncated keeps the decodable prefix of a crash-truncated
	// stream instead of failing the replay.
	AllowTruncated bool

	mu sync.Mutex
	tr *core.Trace
}

// Name implements Source.
func (s *FileSource) Name() string {
	if s.Label != "" {
		return s.Label
	}
	if len(s.Paths) > 0 {
		return s.Paths[0]
	}
	return "file"
}

// Run implements Source: it replays the files' events into sink in
// recorded order.
func (s *FileSource) Run(ctx context.Context, sink otrace.Sink) error {
	if len(s.Paths) == 0 {
		return fmt.Errorf("source: file source %q has no paths", s.Name())
	}
	col := trace.NewCollector()
	collecting := true
	err := otrace.ReadFiles(s.Paths, func(ev otrace.Event) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		if collecting && col.Add(ev) != nil {
			// Not a single-run stream; keep replaying, give up on the
			// reconstruction.
			collecting = false
		}
		sink.Emit(ev)
		return nil
	})
	if err != nil {
		if s.AllowTruncated && errors.Is(err, otrace.ErrTruncated) {
			err = nil
		} else {
			return err
		}
	}
	if collecting {
		if tr, terr := col.Trace(); terr == nil {
			s.mu.Lock()
			s.tr = tr
			s.mu.Unlock()
		}
	}
	return nil
}

// Trace implements Traced: the reconstructed run trace, nil before Run
// succeeds or when the stream was not a single well-formed run.
func (s *FileSource) Trace() *core.Trace {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tr
}
