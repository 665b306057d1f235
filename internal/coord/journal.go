package coord

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"netprobe/internal/otrace"
)

// The write-ahead journal: every job-table transition appended as one
// ctrl_* frame to a .otr file, using the same OTR2 wire framing as the
// control connections and trace archives (one framing layer, one
// reader, one versioning story — see otrace/wire.go). Replay is
// truncation-tolerant like otrace.Read: a crash mid-frame costs the
// torn tail frame, never the prefix, so the table a coordinator
// rebuilds after a SIGKILL is exactly the table the durable prefix
// described.
//
// The journal is compacting rather than rotating: FrameWriter stamps
// the stream magic at creation, so frames cannot be appended to an
// existing file across restarts. OpenJournal therefore always replays
// the old file and rewrites it as the table's snapshot (table.snapshot)
// via a temp file and atomic rename — which doubles as recovery (Serve
// takes the replayed table over) and as rotation (a journal that
// outgrows MaxBytes is compacted the same way mid-flight).

// SyncPolicy selects when appended frames are fsynced.
type SyncPolicy string

const (
	// SyncAlways fsyncs after every append: a transition survives an
	// OS crash the moment Append returns. The strongest and slowest.
	SyncAlways SyncPolicy = "always"
	// SyncInterval (the default) flushes every append to the OS —
	// surviving a process SIGKILL — and fsyncs at most once per
	// SyncEvery, bounding what a *machine* crash can lose.
	SyncInterval SyncPolicy = "interval"
	// SyncNone flushes to the OS but never fsyncs; Close still syncs.
	SyncNone SyncPolicy = "none"
)

// JournalOptions configures OpenJournal.
type JournalOptions struct {
	// Sync is the fsync policy (default SyncInterval).
	Sync SyncPolicy
	// SyncEvery bounds the fsync interval under SyncInterval (default
	// 100ms).
	SyncEvery time.Duration
	// MaxBytes triggers compaction when the journal file outgrows it
	// (default 4 MiB; negative disables).
	MaxBytes int64
}

// Journal is an open write-ahead journal. Safe for concurrent use.
type Journal struct {
	path string
	opts JournalOptions

	mu         sync.Mutex
	f          *os.File
	fw         *otrace.FrameWriter
	bytes      *int64 // written through the frame writer, post-buffer; shared with fw's countWriter
	lastSyncNs int64
	appends    int64
	compacts   int64
	err        error
	closed     bool
}

// countWriter counts bytes reaching the file, past FrameWriter's
// buffer, so Size reflects what replay would see.
type countWriter struct {
	w io.Writer
	n *int64
}

func (c countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	*c.n += int64(n)
	return n, err
}

// Recovered is a replayed journal: the job table as of the last
// decodable frame. Its Jobs, NextIndex, MaxSeq and Counts come from
// the embedded table, which Serve takes over when passed as
// Config.Recovered.
type Recovered struct {
	*table
	// Frames is how many frames replayed; Truncated reports a torn
	// tail frame (the prefix was kept).
	Frames    int64
	Truncated bool
}

// Recover replays the journal at path and rebuilds the job table it
// describes by applying every frame in order. A torn tail frame (the
// process died mid-append) is tolerated like otrace.Read tolerates
// truncated traces: every decodable frame is applied and Truncated is
// set.
func Recover(path string) (*Recovered, error) {
	rec := &Recovered{table: newTable()}
	err := otrace.ReadFile(path, func(ev otrace.Event) error {
		rec.Frames++
		rec.apply(ev)
		return nil
	})
	if err != nil {
		if errors.Is(err, otrace.ErrTruncated) {
			rec.Truncated = true
			return rec, nil
		}
		return nil, err
	}
	return rec, nil
}

// OpenJournal opens (or creates) the journal at path: an existing file
// is replayed into the returned Recovered, compacted, and the journal
// continues appending after the snapshot. The Recovered is nil only on
// error; a fresh journal recovers an empty table.
func OpenJournal(path string, opts JournalOptions) (*Journal, *Recovered, error) {
	if opts.Sync == "" {
		opts.Sync = SyncInterval
	}
	switch opts.Sync {
	case SyncAlways, SyncInterval, SyncNone:
	default:
		return nil, nil, fmt.Errorf("coord: journal: unknown sync policy %q", opts.Sync)
	}
	if opts.SyncEvery <= 0 {
		opts.SyncEvery = 100 * time.Millisecond
	}
	if opts.MaxBytes == 0 {
		opts.MaxBytes = 4 << 20
	}
	rec := &Recovered{table: newTable()}
	if st, err := os.Stat(path); err == nil && st.Size() > 0 {
		rec, err = Recover(path)
		if err != nil {
			return nil, nil, fmt.Errorf("coord: journal %s: %w", path, err)
		}
	}
	j := &Journal{path: path, opts: opts}
	if err := j.rewriteLocked(rec.snapshot()); err != nil {
		return nil, nil, err
	}
	return j, rec, nil
}

// rewriteLocked writes frames as a fresh journal via temp file +
// atomic rename, keeping the renamed file open for further appends.
// The old journal stays intact until the rename, so a crash at any
// point leaves a replayable file. Callers hold j.mu (or own j
// exclusively, as OpenJournal does).
func (j *Journal) rewriteLocked(frames []otrace.Event) error {
	tmp := j.path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("coord: journal: %w", err)
	}
	// The counter is shared with the frame writer so appends after the
	// rewrite keep growing the same size the compaction check reads.
	bytes := new(int64)
	fw := otrace.NewFrameWriter(countWriter{w: f, n: bytes})
	for _, ev := range frames {
		if err := fw.WriteEvent(ev); err != nil {
			f.Close() //nolint:errcheck // already failing
			return fmt.Errorf("coord: journal: %w", err)
		}
	}
	if err := fw.Flush(); err != nil {
		f.Close() //nolint:errcheck // already failing
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close() //nolint:errcheck // already failing
		return fmt.Errorf("coord: journal: %w", err)
	}
	if err := os.Rename(tmp, j.path); err != nil {
		f.Close() //nolint:errcheck // already failing
		return fmt.Errorf("coord: journal: %w", err)
	}
	if j.f != nil {
		j.f.Close() //nolint:errcheck // replaced by the compacted file
	}
	j.f, j.fw, j.bytes = f, fw, bytes
	j.lastSyncNs = time.Now().UnixNano()
	return nil
}

// Append journals one transition frame. Errors are sticky (a journal
// that cannot write reports via Err; the coordinator keeps running on
// its in-memory table). The append path is allocation-free in the
// steady state — see TestJournalAppendAllocs.
func (j *Journal) Append(ev otrace.Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil || j.closed {
		return
	}
	if err := j.fw.WriteEvent(ev); err != nil {
		j.err = err
		return
	}
	// Every append reaches the OS: a SIGKILLed coordinator loses at
	// most the frame a torn write was mid-way through, which replay
	// tolerates.
	if err := j.fw.Flush(); err != nil {
		j.err = err
		return
	}
	j.appends++
	switch j.opts.Sync {
	case SyncAlways:
		j.err = j.syncLocked()
	case SyncInterval:
		if now := time.Now().UnixNano(); now-j.lastSyncNs >= int64(j.opts.SyncEvery) {
			j.err = j.syncLocked()
		}
	}
}

func (j *Journal) syncLocked() error {
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("coord: journal: sync: %w", err)
	}
	j.lastSyncNs = time.Now().UnixNano()
	return nil
}

// ShouldCompact reports whether the journal has outgrown MaxBytes.
func (j *Journal) ShouldCompact() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.opts.MaxBytes > 0 && *j.bytes > j.opts.MaxBytes && j.err == nil && !j.closed
}

// Compact rewrites the journal as the given snapshot frames (the
// coordinator renders its live table), resetting the file size.
func (j *Journal) Compact(frames []otrace.Event) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	if err := j.rewriteLocked(frames); err != nil {
		j.err = err
		return err
	}
	j.compacts++
	return nil
}

// Err reports the sticky append/sync error, nil while healthy.
func (j *Journal) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Path reports the journal file's path.
func (j *Journal) Path() string { return j.path }

// Size reports the journal file's current size in bytes.
func (j *Journal) Size() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return *j.bytes
}

// Stats reports lifetime append and compaction counts.
func (j *Journal) Stats() (appends, compactions int64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.appends, j.compacts
}

// Close flushes, fsyncs, and closes the journal. Idempotent.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return j.err
	}
	j.closed = true
	if j.err == nil {
		if err := j.fw.Flush(); err != nil {
			j.err = err
		} else {
			j.err = j.syncLocked()
		}
	}
	if err := j.f.Close(); err != nil && j.err == nil {
		j.err = fmt.Errorf("coord: journal: %w", err)
	}
	return j.err
}

// Abandon closes the journal file without flushing or syncing —
// the crash-simulation teardown the chaos harness uses after Kill.
func (j *Journal) Abandon() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return
	}
	j.closed = true
	j.f.Close() //nolint:errcheck // crash simulation
}
