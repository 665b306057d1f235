package otrace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// The binary wire framing: a compact, length-prefixed encoding of
// Events for streaming between processes (a prober on one box feeding
// a relay's online engine on another — see internal/source). A framed
// stream opens with the 4-byte magic "OTR2" and then carries one frame
// per event: a uvarint payload length followed by the payload, which
// encodes every Event field in a fixed order (zigzag varints for
// integers, uvarint-length-prefixed bytes for strings). The encoding
// is deterministic — identical event sequences produce identical byte
// streams — and round-trips exactly: decoding a frame and re-encoding
// the event as JSONL reproduces the JSONL the originating process
// would have written, which is what lets the equivalence tests pin
// byte-identical traces across local and remote source kinds.

// wireMagic opens every framed stream; the trailing digit is the
// format version. Version 2 appended the Value field to the payload;
// readers also accept version-1 streams, whose frames end before it
// (Value decodes as 0), so an old sender still feeds a new relay.
//
// Versioning discipline: the payload layout (field order and encoding)
// is what the version digit protects. New event *kinds* — including
// the fleet control-frame family (KindCtrlRegister/Job/Accept/
// Complete), which reuses existing fields — ride on the self-describing
// Kind string and need no version bump; only appending or reordering
// payload fields does. The same framing is the coordinator's journal
// file, which is why Read sniffs this magic to tell a journal from
// JSONL.
var (
	wireMagic   = [4]byte{'O', 'T', 'R', '2'}
	wireMagicV1 = [4]byte{'O', 'T', 'R', '1'}
)

// isWireMagic reports whether p opens with a recognized frame-stream
// magic (any accepted version).
func isWireMagic(p []byte) bool {
	return len(p) >= 4 && p[0] == 'O' && p[1] == 'T' && p[2] == 'R' &&
		(p[3] == '1' || p[3] == '2')
}

// MaxFrame bounds a frame's payload size. Events are a few hundred
// bytes; anything near this limit is a corrupt or hostile stream.
const MaxFrame = 1 << 20

// AppendEvent appends the binary encoding of ev to buf and returns the
// extended slice. The encoding covers every Event field in declaration
// order; zero fields cost one byte each.
func AppendEvent(buf []byte, ev Event) []byte {
	buf = binary.AppendVarint(buf, ev.T)
	buf = appendString(buf, string(ev.Ev))
	buf = binary.AppendVarint(buf, int64(ev.Seq))
	buf = appendString(buf, ev.Flow)
	buf = appendString(buf, ev.Queue)
	buf = appendString(buf, ev.Dir)
	buf = binary.AppendVarint(buf, int64(ev.QLen))
	buf = binary.AppendVarint(buf, ev.SentNs)
	buf = binary.AppendVarint(buf, ev.RecvNs)
	buf = binary.AppendVarint(buf, ev.RTTNs)
	buf = appendString(buf, ev.Fault)
	buf = binary.AppendVarint(buf, ev.DurNs)
	buf = appendString(buf, ev.Name)
	buf = binary.AppendVarint(buf, ev.DeltaNs)
	buf = binary.AppendVarint(buf, int64(ev.PayloadBytes))
	buf = binary.AppendVarint(buf, int64(ev.WireBytes))
	buf = binary.AppendVarint(buf, ev.BottleneckBps)
	buf = binary.AppendVarint(buf, ev.ClockResNs)
	buf = binary.AppendVarint(buf, int64(ev.Count))
	buf = appendString(buf, ev.Job)
	buf = binary.AppendVarint(buf, int64(ev.Index))
	buf = binary.AppendVarint(buf, ev.Seed)
	buf = binary.AppendVarint(buf, int64(ev.Probes))
	buf = binary.AppendVarint(buf, int64(ev.Losses))
	buf = binary.AppendUvarint(buf, math.Float64bits(ev.Value))
	return buf
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// AppendStreamHeader appends the magic that opens a framed stream.
func AppendStreamHeader(buf []byte) []byte { return append(buf, wireMagic[:]...) }

// AppendFrame appends ev to buf as one frame: the uvarint payload
// length, then the AppendEvent payload. An event whose payload exceeds
// MaxFrame is an error, and buf is returned unchanged.
func AppendFrame(buf []byte, ev Event) ([]byte, error) {
	// Reserve one length byte, encode in place, and widen the prefix in
	// the rare case the payload needs more; a payload under 128 bytes —
	// nearly every event — is written once, without a scratch buffer.
	start := len(buf)
	buf = AppendEvent(append(buf, 0), ev)
	n := len(buf) - start - 1
	if n > MaxFrame {
		return buf[:start], fmt.Errorf("otrace: frame of %d bytes exceeds MaxFrame", n)
	}
	var prefix [binary.MaxVarintLen64]byte
	ln := binary.PutUvarint(prefix[:], uint64(n))
	if ln > 1 {
		buf = append(buf, prefix[1:ln]...) // grow by the extra prefix bytes
		copy(buf[start+ln:], buf[start+1:start+1+n])
	}
	copy(buf[start:], prefix[:ln])
	return buf, nil
}

// DecodeEvent decodes one binary-encoded event, requiring that data
// holds exactly one event (trailing bytes are an error — a framing bug,
// not a compatible extension).
func DecodeEvent(data []byte) (Event, error) {
	d := decoder{buf: data}
	var ev Event
	ev.T = d.varint()
	ev.Ev = Kind(d.string())
	ev.Seq = int(d.varint())
	ev.Flow = d.string()
	ev.Queue = d.string()
	ev.Dir = d.string()
	ev.QLen = int(d.varint())
	ev.SentNs = d.varint()
	ev.RecvNs = d.varint()
	ev.RTTNs = d.varint()
	ev.Fault = d.string()
	ev.DurNs = d.varint()
	ev.Name = d.string()
	ev.DeltaNs = d.varint()
	ev.PayloadBytes = int(d.varint())
	ev.WireBytes = int(d.varint())
	ev.BottleneckBps = d.varint()
	ev.ClockResNs = d.varint()
	ev.Count = int(d.varint())
	ev.Job = d.string()
	ev.Index = int(d.varint())
	ev.Seed = d.varint()
	ev.Probes = int(d.varint())
	ev.Losses = int(d.varint())
	// Value arrived with format version 2; a version-1 frame ends here,
	// and the field defaults to zero rather than failing the decode.
	if d.err == nil && len(d.buf) == 0 {
		ev.Value = 0
	} else {
		ev.Value = math.Float64frombits(d.uvarint())
	}
	if d.err != nil {
		return Event{}, fmt.Errorf("otrace: decode event: %w", d.err)
	}
	if len(d.buf) != 0 {
		return Event{}, fmt.Errorf("otrace: decode event: %d trailing bytes", len(d.buf))
	}
	return ev, nil
}

// decoder consumes the fixed field sequence with a sticky error, so
// DecodeEvent reads as a mirror of AppendEvent.
type decoder struct {
	buf []byte
	err error
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf)
	if n <= 0 {
		d.err = fmt.Errorf("bad varint")
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.err = fmt.Errorf("bad uvarint")
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *decoder) string() string {
	if d.err != nil {
		return ""
	}
	l, n := binary.Uvarint(d.buf)
	if n <= 0 || l > uint64(len(d.buf)-n) {
		d.err = fmt.Errorf("bad string length")
		return ""
	}
	s := string(d.buf[n : n+int(l)])
	d.buf = d.buf[n+int(l):]
	return s
}

// FrameWriter writes a framed binary event stream: the magic header on
// creation, then one length-prefixed frame per event. It buffers
// internally; call Flush to push frames to the underlying writer
// (WriteEvent does not flush, so a caller batching events pays one
// syscall per Flush, not per event). FrameWriter is not safe for
// concurrent use; the coordinator's journal, its one caller, holds a
// lock of its own. internal/source.Sender, which coalesces frames for
// a flush goroutine of its own, builds them with AppendFrame instead.
type FrameWriter struct {
	bw  *bufio.Writer
	buf []byte
	n   int64
}

// NewFrameWriter starts a framed stream on w, buffering the magic
// header for the first Flush.
func NewFrameWriter(w io.Writer) *FrameWriter {
	fw := &FrameWriter{bw: bufio.NewWriter(w)}
	fw.bw.Write(wireMagic[:]) //nolint:errcheck // surfaces on Flush
	return fw
}

// WriteEvent appends one frame to the buffer.
func (f *FrameWriter) WriteEvent(ev Event) error {
	var err error
	if f.buf, err = AppendFrame(f.buf[:0], ev); err != nil {
		return err
	}
	if _, err := f.bw.Write(f.buf); err != nil {
		return fmt.Errorf("otrace: write frame: %w", err)
	}
	f.n++
	return nil
}

// Flush pushes buffered frames to the underlying writer.
func (f *FrameWriter) Flush() error {
	if err := f.bw.Flush(); err != nil {
		return fmt.Errorf("otrace: flush frames: %w", err)
	}
	return nil
}

// Events reports how many events have been written.
func (f *FrameWriter) Events() int64 { return f.n }

// FrameReader decodes a framed binary event stream. It reuses one
// internal frame buffer across Next calls (DecodeEvent copies string
// fields out of it), so steady-state reads allocate only the decoded
// event's strings.
type FrameReader struct {
	br  *bufio.Reader
	buf []byte
	n   int64
}

// NewFrameReader validates the stream magic and returns a reader
// positioned at the first frame. Both the current and the previous
// format version are accepted (frame payloads self-describe the
// difference — see DecodeEvent); a stream that opens with neither
// magic (or ends before it) fails with an error wrapping ErrTruncated.
func NewFrameReader(r io.Reader) (*FrameReader, error) {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("%w: frame magic: %v", ErrTruncated, err)
	}
	if magic != wireMagic && magic != wireMagicV1 {
		return nil, fmt.Errorf("%w: bad frame magic %q", ErrTruncated, magic[:])
	}
	return &FrameReader{br: br}, nil
}

// Next returns the next event. It returns io.EOF at a clean end of
// stream (between frames) and an error wrapping ErrTruncated when the
// stream dies mid-frame or carries a malformed frame.
func (f *FrameReader) Next() (Event, error) {
	l, err := binary.ReadUvarint(f.br)
	if err != nil {
		if err == io.EOF {
			return Event{}, io.EOF // clean boundary
		}
		return Event{}, fmt.Errorf("%w: frame length: %v", ErrTruncated, err)
	}
	if l > MaxFrame {
		return Event{}, fmt.Errorf("%w: frame of %d bytes exceeds MaxFrame", ErrTruncated, l)
	}
	if uint64(cap(f.buf)) < l {
		f.buf = make([]byte, l)
	}
	buf := f.buf[:l]
	if _, err := io.ReadFull(f.br, buf); err != nil {
		return Event{}, fmt.Errorf("%w: frame body: %v", ErrTruncated, err)
	}
	ev, err := DecodeEvent(buf)
	if err != nil {
		return Event{}, fmt.Errorf("%w: %v", ErrTruncated, err)
	}
	f.n++
	return ev, nil
}

// Events reports how many events have been read.
func (f *FrameReader) Events() int64 { return f.n }
