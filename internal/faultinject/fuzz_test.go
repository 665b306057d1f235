package faultinject

import (
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzParsePlan checks that arbitrary input never panics Parse, that
// every plan it accepts passes Validate, and that an accepted plan
// survives json.Marshal and a second Parse unchanged.
//
// One field does not round-trip byte for byte: an empty "blackholes"
// array parses to an empty non-nil slice, which omitempty drops on
// the way out, so the second parse has a nil slice. Both mean "no
// outage windows", so the comparison treats them as equal.
func FuzzParsePlan(f *testing.F) {
	for _, seed := range []string{
		// Makefile demos.
		`{"seed":2,"drop":0.05}`,
		`{"seed":3,"drop":0.05}`,
		`{"seed":7,"blackholes":[{"start":"3s","end":"6s"}]}`,
		// Package tests.
		`{"seed": 99, "drop": 0.1, "send_err": 0.3, "reorder_delay": "25ms",
		  "blackholes": [{"start": "2s", "end": "7s"}, {"start": "10s", "end": "15s"}]}`,
		`{"seed":1,"spike_dur":1000000}`,
		`{"seed":1,"drop":0.3}`,
		`{"drop":0.1}`,
		`{"drop": 2}`,
		// Every field, the receive side included.
		`{"seed":-1,"duplicate":0.5,"reorder":0.25,"delay_spike":1,"corrupt":0,
		  "spike_dur":"1m","recv":{"drop":0.5,"delay":0.5,"delay_dur":"250ms"}}`,
		`{"blackholes":[]}`,
		`{"recv":{}}`,
		`null`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Parse(data)
		if err != nil {
			return // rejection is fine; panics are not
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("Parse accepted %q, which fails Validate: %v", data, err)
		}
		out, err := json.Marshal(p)
		if err != nil {
			t.Fatalf("accepted plan %+v does not marshal: %v", p, err)
		}
		back, err := Parse(out)
		if err != nil {
			t.Fatalf("re-parse of %s (from %q): %v", out, data, err)
		}
		if len(p.Blackholes) == 0 {
			p.Blackholes = nil
		}
		if !reflect.DeepEqual(back, p) {
			t.Fatalf("round trip changed the plan:\n in: %q\nout: %s\n%+v\n%+v", data, out, p, back)
		}
	})
}
