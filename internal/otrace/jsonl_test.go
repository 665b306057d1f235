package otrace

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
	"unicode/utf8"
)

// realEvents holds one representative event of every Kind, shaped the
// way its producer emits it.
var realEvents = []Event{
	{Ev: KindRunStart, Seq: -1, Name: "INRIA→UMd δ=50ms", DeltaNs: 50e6, PayloadBytes: 32,
		WireBytes: 72, BottleneckBps: 128000, ClockResNs: 1e6, Count: 12000},
	{T: 50e6, Ev: KindProbeSent, Seq: 1, Flow: "probe"},
	{T: 50_412_000, Ev: KindEnqueue, Seq: 1, Queue: "hop4", Dir: "fwd", QLen: 3},
	{T: 51_000_000, Ev: KindDrop, Seq: 1, Queue: "hop4", Dir: "ret", QLen: 20},
	{T: 120e6, Ev: KindEcho, Seq: 2},
	{T: 190e6, Ev: KindRTT, Seq: 2, SentNs: 100e6, RecvNs: 190e6, RTTNs: 90e6},
	{Ev: KindJobStart, Seq: -1, Job: "inria δ=20ms", Index: 3, Seed: -7310427117302712379},
	{Ev: KindJobFinish, Seq: -1, Job: "inria δ=20ms", Index: 3, Seed: 42, Probes: 30000, Losses: 312},
	{T: 7e9, Ev: KindFault, Seq: 55, Fault: "delay", DurNs: 3e6},
	{T: 3e9, Ev: KindGap, Seq: 150, DurNs: 3e9, Probes: 150},
	{Ev: KindHeartbeat, Seq: -1, SentNs: 1_760_000_000_123_456_789},
	{Ev: KindAlert, Seq: -1, Name: "loss_spike", Flow: "online.ulp{job=a}", Fault: "fire",
		Value: 0.35, SentNs: 1_760_000_000_000_000_000},
	{Ev: KindCtrlRegister, Seq: -1, Name: "agent1", Count: 2},
	{Ev: KindCtrlJob, Seq: -1, Job: "lab-probe#0", Name: "lab-probe", Dir: "probe",
		Flow: "127.0.0.1:6095", DeltaNs: 10e6, PayloadBytes: 32, Count: 100, DurNs: 0,
		Fault: `{"seed":7,"blackholes":[{"start":"3s","end":"6s"}]}`, Seed: 3},
	{Ev: KindCtrlAccept, Seq: -1, Job: "lab-probe#0"},
	{Ev: KindCtrlComplete, Seq: -1, Job: "lab-probe#0", Probes: 100, Losses: 1, DurNs: 1_012_000_000},
	{Ev: KindCtrlAck, Seq: -1, Job: "lab-probe#0"},
	{Ev: KindCtrlSubmit, Seq: -1, Job: "inria-20#4", Index: 4, SentNs: 1_760_000_000_000_000_001,
		Name: "inria-20", Dir: "sim", Flow: "inria", DeltaNs: 20e6, DurNs: 5e9, Seed: 1},
	{Ev: KindCtrlDispatch, Seq: -1, Job: "inria-20#4", Name: "agent2", Count: 1},
	{Ev: KindCtrlRequeue, Seq: -1, Job: "inria-20#4", Fault: "agent lost: EOF"},
	{Ev: KindCtrlFail, Seq: -1, Job: "inria-20#4", Fault: "sim: \"bad\" <preset> & more\n"},
}

// packInts and unpackInts map Event's integer fields, in declaration
// order, to and from a run of zigzag varints — the fuzz input form,
// where byte mutations reach extreme and negative values.
func packInts(ev Event) []byte {
	var b []byte
	for _, v := range [...]int64{ev.T, int64(ev.Seq), int64(ev.QLen), ev.SentNs, ev.RecvNs,
		ev.RTTNs, ev.DurNs, ev.DeltaNs, int64(ev.PayloadBytes), int64(ev.WireBytes),
		ev.BottleneckBps, ev.ClockResNs, int64(ev.Count), int64(ev.Index), ev.Seed,
		int64(ev.Probes), int64(ev.Losses)} {
		b = binary.AppendVarint(b, v)
	}
	return b
}

func unpackInts(ev *Event, b []byte) {
	var v [17]int64
	for i := range v {
		x, n := binary.Varint(b)
		if n <= 0 {
			break
		}
		v[i], b = x, b[n:]
	}
	ev.T, ev.Seq, ev.QLen, ev.SentNs, ev.RecvNs = v[0], int(v[1]), int(v[2]), v[3], v[4]
	ev.RTTNs, ev.DurNs, ev.DeltaNs, ev.PayloadBytes, ev.WireBytes = v[5], v[6], v[7], int(v[8]), int(v[9])
	ev.BottleneckBps, ev.ClockResNs, ev.Count, ev.Index, ev.Seed = v[10], v[11], int(v[12]), int(v[13]), v[14]
	ev.Probes, ev.Losses = int(v[15]), int(v[16])
}

// checkJSONL fails t unless appendJSON and json.Marshal agree on ev:
// both reject it, or both produce the same bytes.
func checkJSONL(t *testing.T, ev Event) {
	t.Helper()
	want, werr := json.Marshal(ev)
	got, gerr := appendJSON(nil, &ev)
	if (werr != nil) != (gerr != nil) {
		t.Fatalf("json.Marshal err %v, appendJSON err %v for %+v", werr, gerr, ev)
	}
	if werr == nil && !bytes.Equal(got, want) {
		t.Fatalf("encoding mismatch for %+v:\n got %s\nwant %s", ev, got, want)
	}
}

// FuzzJSONLEncode pins the hand-written JSONL encoder to
// encoding/json byte for byte, and checks that an event with valid
// UTF-8 strings survives a Writer → Read round trip unchanged.
func FuzzJSONLEncode(f *testing.F) {
	add := func(ev Event) {
		f.Add(string(ev.Ev), ev.Flow, ev.Queue, ev.Dir, ev.Fault, ev.Name, ev.Job, packInts(ev), ev.Value)
	}
	for _, ev := range realEvents {
		add(ev)
	}
	for _, v := range []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		5e-324, -2.2250738585072009e-308, 1e-7, 1e-6, 999999e15, 1e21, -1e21, 123456789.125} {
		add(Event{Ev: KindAlert, Seq: -1, Value: v})
	}
	add(Event{T: math.MinInt64, Ev: "\xff\xfe", Seq: math.MaxInt64, Flow: "\x00\x01\x1f\x7f",
		Queue: "<a href='x'>&amp;</a>", Dir: "\u2028\u2029", Fault: "\b\f\n\r\t\"\\",
		Name: "ok é 日本 \U0001F600", Job: "bad \xc3\x28 \xed\xa0\x80 tail\xe2\x82", Seed: -1})

	f.Fuzz(func(t *testing.T, kind, flow, queue, dir, fault, name, job string, ints []byte, value float64) {
		ev := Event{Ev: Kind(kind), Flow: flow, Queue: queue, Dir: dir, Fault: fault,
			Name: name, Job: job, Value: value}
		unpackInts(&ev, ints)
		checkJSONL(t, ev)

		if math.IsNaN(value) || math.IsInf(value, 0) {
			return
		}
		for _, s := range []string{kind, flow, queue, dir, fault, name, job} {
			if !utf8.ValidString(s) {
				return // invalid bytes decode as U+FFFD, by design
			}
		}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		w.Emit(ev)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		var got []Event
		if err := Read(&buf, func(e Event) error {
			got = append(got, e)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 || got[0] != ev {
			t.Fatalf("round trip changed the event:\n got %+v\nwant %+v", got, ev)
		}
	})
}

// TestAppendJSONCoversEveryField sets each serialized Event field on
// its own and compares against json.Marshal, so a field added to Event
// without a matching line in appendJSON fails here even before the
// fuzzer finds it.
func TestAppendJSONCoversEveryField(t *testing.T) {
	typ := reflect.TypeOf(Event{})
	for i := 0; i < typ.NumField(); i++ {
		if typ.Field(i).Tag.Get("json") == "-" {
			continue
		}
		var ev Event
		fv := reflect.ValueOf(&ev).Elem().Field(i)
		switch fv.Kind() {
		case reflect.String:
			fv.SetString("x<y>")
		case reflect.Int, reflect.Int64:
			fv.SetInt(-42)
		case reflect.Float64:
			fv.SetFloat(2.5e-9)
		default:
			t.Fatalf("field %s: kind %s not covered by the test", typ.Field(i).Name, fv.Kind())
		}
		checkJSONL(t, ev)
	}
	for _, ev := range realEvents {
		checkJSONL(t, ev)
	}
}

// TestWriterRejectsNonFiniteValue: a NaN or infinite Value cannot be
// encoded; the error is sticky, Close reports it, and nothing after
// the bad event reaches the output.
func TestWriterRejectsNonFiniteValue(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		w.Emit(Event{Ev: KindAlert, Seq: -1, Name: "r", Value: 0.5})
		w.Emit(Event{Ev: KindAlert, Seq: -1, Name: "r", Value: bad})
		w.Emit(Event{T: 1, Ev: KindRTT, Seq: 1, RTTNs: 9})
		err := w.Close()
		if err == nil || !strings.Contains(err.Error(), "unsupported value") {
			t.Fatalf("Value %v: Close() = %v, want an unsupported-value error", bad, err)
		}
		if w.Events() != 1 {
			t.Errorf("Value %v: Events() = %d, want 1", bad, w.Events())
		}
		if want := "{\"t\":0,\"ev\":\"alert\",\"seq\":-1,\"name\":\"r\",\"value\":0.5}\n"; buf.String() != want {
			t.Errorf("Value %v: output %q, want only the first event %q", bad, buf.String(), want)
		}
	}
}
