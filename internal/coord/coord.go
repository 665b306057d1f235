// Package coord is the measurement fleet's control plane: a
// coordinator that schedules probe jobs across registered agents —
// the other half of the fleet architecture whose transport half is
// internal/source (PR 6's Sender/Serve wire).
//
// The division of labor mirrors the measurement-infrastructure
// literature that extends Bolot's single-path methodology to many
// paths (Platonov & Sukhov, PAPERS.md): a coordinator owns the job
// table and pushes specs down; agents execute them — a real netdyn
// probe session, a simulation, or a synthetic load session — and
// stream the resulting otrace events, tagged with the job id, through
// the ordinary relay data plane. The control plane deliberately rides
// the *same* wire framing as the data plane (otrace wire format, a
// family of ctrl_* event kinds): one framing layer, one reader, one
// versioning story.
//
//	         control (ctrl_* frames)              data (probe events)
//	┌───────────┐  job specs ↓  ┌───────┐  tagged events  ┌───────┐
//	│netdyn-coord│ ───────────→ │ agent │ ──────────────→ │ relay │
//	└───────────┘  ←─ register, └───────┘                 └───────┘
//	                  accept, complete                 sharded engines
//
// A connection carries register → (job → accept → complete)* with
// heartbeats in between; the coordinator re-queues the running jobs of
// an agent that disconnects (bounded by MaxAttempts), and agents
// reconnect with the netdyn.Supervise backoff shape, so either side
// can restart without losing the job table's integrity.
//
// Everything is observable through the existing obs stack: job and
// agent state surface as coord.* gauges, a /statusz section, and —
// because agents tag events per job — per-job rows in the relay's
// online analyzers, with zero new serving code.
package coord

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// Duration is a time.Duration that marshals as a human-readable
// string ("50ms") and unmarshals from either a string or integer
// nanoseconds — the jobs-file friendly form.
type Duration time.Duration

// D converts to the standard type.
func (d Duration) D() time.Duration { return time.Duration(d) }

// MarshalJSON encodes the duration as its String form.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts "50ms"-style strings or integer nanoseconds.
func (d *Duration) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("coord: duration %q: %w", s, err)
		}
		*d = Duration(v)
		return nil
	}
	var ns int64
	if err := json.Unmarshal(b, &ns); err != nil {
		return err
	}
	*d = Duration(ns)
	return nil
}

// Spec describes one probe job: what to measure, how, and (optionally)
// on what schedule. The coordinator does not interpret Mode/Target —
// the agent's executor does — which is what lets sim-backed fake
// agents (the load harness) and real netdyn probers share one control
// plane.
type Spec struct {
	// Name labels the job; instances get unique ids derived from it.
	Name string `json:"name"`
	// Mode selects the agent-side executor: "probe" (a real netdyn
	// session against Target, the default), "sim" (Target names a core
	// preset), or any executor-defined string.
	Mode string `json:"mode,omitempty"`
	// Target is the echo address (probe mode) or preset name (sim mode).
	Target string `json:"target,omitempty"`
	// Delta is the probe interval δ.
	Delta Duration `json:"delta,omitempty"`
	// PayloadBytes is the probe payload size (0 = executor default).
	PayloadBytes int `json:"payload_bytes,omitempty"`
	// Count is the number of probes; 0 derives it from Duration/Delta.
	Count int `json:"count,omitempty"`
	// Duration bounds the run when Count is 0.
	Duration Duration `json:"duration,omitempty"`
	// Faults is a JSON fault-injection plan (internal/faultinject),
	// empty for a clean run.
	Faults string `json:"faults,omitempty"`
	// Seed drives the job's randomness. Recurring instances run with
	// Seed+n so repeats are decorrelated but replayable.
	Seed int64 `json:"seed,omitempty"`
	// Deadline bounds one execution attempt. The agent cancels the
	// executor's context at the deadline and reports an error complete;
	// the coordinator additionally re-queues an instance whose agent
	// has not settled it well past the deadline, so a hung RunFunc (or
	// a wedged agent) cannot pin an instance forever. Zero means no
	// bound.
	Deadline Duration `json:"deadline,omitempty"`
	// Every, when positive, makes the spec recurring: the coordinator
	// submits a fresh instance immediately and then on every tick.
	Every Duration `json:"every,omitempty"`
	// Runs bounds a recurring spec's instance count (0 = until the
	// coordinator shuts down). Ignored when Every is zero.
	Runs int `json:"runs,omitempty"`
}

// LoadSpecs reads a jobs file: a JSON array of Specs.
func LoadSpecs(path string) ([]Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("coord: %w", err)
	}
	var specs []Spec
	if err := json.Unmarshal(data, &specs); err != nil {
		return nil, fmt.Errorf("coord: jobs file %s: %w", path, err)
	}
	for i, s := range specs {
		if s.Name == "" {
			return nil, fmt.Errorf("coord: jobs file %s: job %d has no name", path, i)
		}
	}
	return specs, nil
}
