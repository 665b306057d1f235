package tshist

import (
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzParseRules checks that arbitrary input never panics ParseRules,
// that every rule it accepts passes validate, and that accepted rules
// survive json.Marshal and a second ParseRules unchanged.
func FuzzParseRules(f *testing.F) {
	for _, seed := range []string{
		// Makefile dashboard demo.
		`[{"name":"loss_spike","type":"threshold","series":"online.ulp*","max":0.2,"for":2,"clear_for":2}]`,
		// Package tests.
		`[
		  {"name": "loss_spike", "type": "threshold", "series": "online.ulp*", "max": 0.5, "for": 5},
		  {"name": "mu", "type": "ewma", "series": "online.mu_bps*", "k": 3, "min_dev_frac": 0.1},
		  {"name": "frozen", "type": "stuck", "series": "online.*", "for": 10}
		]`,
		`[{"type": "threshold", "series": "x", "max": 1}]`,
		`[{"name": "a", "type": "threshold", "series": "x"}]`,
		`[{"name": "a", "type": "quantum", "series": "x"}]`,
		`[{"name": "a", "type": "ewma"}]`,
		`{"name": "a", "type": "ewma", "series": "x"}`,
		// Every field.
		`[{"name":"n","type":"threshold","series":"s*","min":-1e300,"max":0,"k":4,"alpha":0.2,
		   "min_dev":0.02,"min_dev_frac":0.15,"warmup":5,"for":3,"clear_for":1}]`,
		`[]`,
		`null`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rules, err := ParseRules(data)
		if err != nil {
			return // rejection is fine; panics are not
		}
		for _, r := range rules {
			if err := r.validate(); err != nil {
				t.Fatalf("ParseRules accepted %q, whose rule fails validate: %v", data, err)
			}
		}
		out, err := json.Marshal(rules)
		if err != nil {
			t.Fatalf("accepted rules %+v do not marshal: %v", rules, err)
		}
		back, err := ParseRules(out)
		if err != nil {
			t.Fatalf("re-parse of %s (from %q): %v", out, data, err)
		}
		if !reflect.DeepEqual(back, rules) {
			t.Fatalf("round trip changed the rules:\n in: %q\nout: %s\n%+v\n%+v", data, out, rules, back)
		}
	})
}
