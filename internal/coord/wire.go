package coord

import (
	"time"

	"netprobe/internal/otrace"
)

// The control-plane frame mapping. Control frames are otrace Events
// with ctrl_* kinds, reusing existing Event fields (the wire payload
// encodes every field anyway, so reuse costs nothing and a version
// bump is unnecessary — see otrace/wire.go). The table:
//
//	kind           field reuse
//	ctrl_register  Name=agent name, Count=capacity
//	ctrl_job       Job=instance id, Name=spec name, Dir=mode,
//	               Flow=target, DeltaNs=δ, PayloadBytes, Count,
//	               DurNs=duration, Fault=fault plan JSON, Seed,
//	               RecvNs=deadline, RTTNs=every, QLen=runs
//	ctrl_accept    Job=instance id
//	ctrl_complete  Job=instance id, Probes, Losses, DurNs=wall time,
//	               Fault=error message ("" on success)
//	ctrl_ack       Job=instance id (coordinator → agent: completion
//	               settled or deduplicated; drop it from the resend
//	               buffer)
//
// The journal-frame family records job-table transitions in the
// write-ahead journal (journal.go) with the same encoding:
//
//	kind           field reuse
//	ctrl_submit    everything ctrl_job carries, plus Index=recurrence
//	               index and SentNs=submission wall clock (unix ns)
//	ctrl_dispatch  Job=instance id, Name=agent, Count=attempt number
//	ctrl_requeue   Job=instance id, Fault=reason, Probes, Losses=the
//	               failed attempt's counts
//	ctrl_fail      Job=instance id, Fault=final error, Probes, Losses
//	ctrl_complete  Job=instance id, Probes, Losses, Name=settling agent
//	               when it is not the dispatched one ("" otherwise)
//
// Seq is -1 on every control frame, like heartbeats: they are
// plumbing, not probe events.

// registerEvent announces an agent to the coordinator.
func registerEvent(name string, capacity int) otrace.Event {
	return otrace.Event{Ev: otrace.KindCtrlRegister, Seq: -1, Name: name, Count: capacity}
}

// specEvent fills the spec-carrying fields shared by ctrl_job and
// ctrl_submit.
func specEvent(kind otrace.Kind, id string, s Spec) otrace.Event {
	return otrace.Event{
		Ev:           kind,
		Seq:          -1,
		Job:          id,
		Name:         s.Name,
		Dir:          s.Mode,
		Flow:         s.Target,
		DeltaNs:      int64(s.Delta),
		PayloadBytes: s.PayloadBytes,
		Count:        s.Count,
		DurNs:        int64(s.Duration),
		Fault:        s.Faults,
		Seed:         s.Seed,
		RecvNs:       int64(s.Deadline),
		RTTNs:        int64(s.Every),
		QLen:         s.Runs,
	}
}

// specFromEvent is specEvent's inverse.
func specFromEvent(ev otrace.Event) Spec {
	return Spec{
		Name:         ev.Name,
		Mode:         ev.Dir,
		Target:       ev.Flow,
		Delta:        Duration(ev.DeltaNs),
		PayloadBytes: ev.PayloadBytes,
		Count:        ev.Count,
		Duration:     Duration(ev.DurNs),
		Faults:       ev.Fault,
		Seed:         ev.Seed,
		Deadline:     Duration(ev.RecvNs),
		Every:        Duration(ev.RTTNs),
		Runs:         ev.QLen,
	}
}

// jobEvent pushes one job instance to an agent.
func jobEvent(id string, s Spec) otrace.Event {
	return specEvent(otrace.KindCtrlJob, id, s)
}

// jobFromEvent is jobEvent's inverse.
func jobFromEvent(ev otrace.Event) (id string, s Spec) {
	return ev.Job, specFromEvent(ev)
}

// acceptEvent acknowledges that an agent started a job.
func acceptEvent(id string) otrace.Event {
	return otrace.Event{Ev: otrace.KindCtrlAccept, Seq: -1, Job: id}
}

// completeEvent reports a finished job.
func completeEvent(id string, res Result, errMsg string, wall time.Duration) otrace.Event {
	return otrace.Event{
		Ev:     otrace.KindCtrlComplete,
		Seq:    -1,
		Job:    id,
		Probes: res.Probes,
		Losses: res.Losses,
		DurNs:  int64(wall),
		Fault:  errMsg,
	}
}

// ackEvent confirms a completion back to the agent so it can drop the
// entry from its resend buffer.
func ackEvent(id string) otrace.Event {
	return otrace.Event{Ev: otrace.KindCtrlAck, Seq: -1, Job: id}
}

// The journal record constructors. Each is one job-table transition.

func submitRecord(id string, index int, s Spec, nowNs int64) otrace.Event {
	ev := specEvent(otrace.KindCtrlSubmit, id, s)
	ev.Index = index
	ev.SentNs = nowNs
	return ev
}

func dispatchRecord(id, agent string, attempt int) otrace.Event {
	return otrace.Event{Ev: otrace.KindCtrlDispatch, Seq: -1, Job: id, Name: agent, Count: attempt}
}

func requeueRecord(id, reason string, probes, losses int) otrace.Event {
	return otrace.Event{Ev: otrace.KindCtrlRequeue, Seq: -1, Job: id, Fault: reason, Probes: probes, Losses: losses}
}

func completeRecord(id, agent string, probes, losses int) otrace.Event {
	return otrace.Event{Ev: otrace.KindCtrlComplete, Seq: -1, Job: id, Name: agent, Probes: probes, Losses: losses}
}

func failRecord(id, errMsg string, probes, losses int) otrace.Event {
	return otrace.Event{Ev: otrace.KindCtrlFail, Seq: -1, Job: id, Fault: errMsg, Probes: probes, Losses: losses}
}
