package coord

import (
	"strconv"
	"strings"

	"netprobe/internal/otrace"
)

// JobRow is one instance's row in the job table. The exported fields
// are what the journal describes; only table.apply writes them, so the
// live coordinator and a journal replay cannot disagree about a row.
type JobRow struct {
	ID       string
	Index    int // recurrence index (0 for one-shots)
	Spec     Spec
	State    State
	Agent    string // executing (or settling) agent; "" after a re-queue
	Attempts int
	Probes   int
	Losses   int
	Err      string
	// SubmittedNs is the original submission wall clock (unix ns).
	SubmittedNs int64

	// Scheduling state the journal does not describe: the live
	// coordinator keeps it beside the row, and a replay leaves it zero.
	accepted   bool
	startedNs  int64
	finishedNs int64
	// notBeforeNs holds a re-queued instance out of dispatch until the
	// recovery grace passes (0 = dispatchable now).
	notBeforeNs int64
	// avoid is the agent whose failure re-queued this instance: the next
	// dispatch prefers any other agent, so a retry does not hot-loop on
	// the same broken (or mid-disconnect) agent while healthy ones idle.
	avoid string
}

// table is the job table: rows in submission order, an id index, and
// the bookkeeping replay and scheduling read (recurrence indices, the
// id counter, per-state counts). apply is its only transition function;
// the live coordinator journals a frame and then applies it, and
// Recover applies every journaled frame in order.
type table struct {
	// Jobs holds every instance in submission order.
	Jobs []*JobRow
	// NextIndex maps a recurring spec's name to the next recurrence
	// index it should schedule (max index + 1), so a restart resumes
	// the Seed+n sequence instead of restarting it.
	NextIndex map[string]int
	// MaxSeq is the highest #n id suffix seen, seeding the id counter.
	MaxSeq int

	byID   map[string]*JobRow
	counts JobCounts
}

func newTable() *table {
	return &table{NextIndex: make(map[string]int), byID: make(map[string]*JobRow)}
}

// Counts aggregates the table by state.
func (t *table) Counts() JobCounts { return t.counts }

// apply folds one journal frame into the table. A frame that is not a
// legal transition from the row's current state — a duplicate submit,
// a settlement after settlement — changes nothing, so settlement stays
// exactly-once under replay too. Unknown kinds are skipped, so a newer
// coordinator's journal still replays.
func (t *table) apply(ev otrace.Event) {
	r := t.byID[ev.Job]
	if ev.Ev == otrace.KindCtrlSubmit && r == nil {
		r = &JobRow{ID: ev.Job, Index: ev.Index, Spec: specFromEvent(ev),
			State: StatePending, SubmittedNs: ev.SentNs}
		t.byID[r.ID] = r
		t.Jobs = append(t.Jobs, r)
		t.counts.add(StatePending, 1)
		if r.Spec.Every > 0 && t.NextIndex[r.Spec.Name] < r.Index+1 {
			t.NextIndex[r.Spec.Name] = r.Index + 1
		}
		if n, ok := seqSuffix(r.ID); ok && n > t.MaxSeq {
			t.MaxSeq = n
		}
		return
	}
	if r == nil {
		return
	}
	was := r.State
	switch {
	case ev.Ev == otrace.KindCtrlDispatch && was == StatePending:
		r.State, r.Agent, r.Attempts = StateRunning, ev.Name, ev.Count
	case ev.Ev == otrace.KindCtrlRequeue && was == StateRunning:
		r.State, r.Agent, r.Err = StatePending, "", ev.Fault
		r.Probes, r.Losses = ev.Probes, ev.Losses
	case ev.Ev == otrace.KindCtrlComplete && (was == StatePending || was == StateRunning):
		// Name is set only when the settling agent is not the row's
		// current one (a late success after a re-queue or re-dispatch).
		r.State, r.Err = StateCompleted, ""
		r.Probes, r.Losses = ev.Probes, ev.Losses
		if ev.Name != "" {
			r.Agent = ev.Name
		}
	case ev.Ev == otrace.KindCtrlFail && was == StateRunning:
		r.State, r.Err = StateFailed, ev.Fault
		r.Probes, r.Losses = ev.Probes, ev.Losses
	}
	t.counts.add(was, -1)
	t.counts.add(r.State, 1)
}

// snapshot renders the table as the shortest frame sequence that
// applies back to it: the compaction payload. A row that never left
// the queue is one submit; any other row is submit, dispatch and the
// frame for its position. A running row that carries an earlier
// attempt's error or counts replays that attempt's re-queue first.
func (t *table) snapshot() []otrace.Event {
	out := make([]otrace.Event, 0, 3*len(t.Jobs))
	for _, r := range t.Jobs {
		out = append(out, submitRecord(r.ID, r.Index, r.Spec, r.SubmittedNs))
		earlier := r.Err != "" || r.Probes != 0 || r.Losses != 0
		if r.State == StatePending && r.Attempts == 0 && !earlier {
			continue
		}
		dispatch := dispatchRecord(r.ID, r.Agent, r.Attempts)
		requeue := requeueRecord(r.ID, r.Err, r.Probes, r.Losses)
		switch r.State {
		case StatePending:
			out = append(out, dispatch, requeue)
		case StateRunning:
			if earlier {
				out = append(out, dispatch, requeue)
			}
			out = append(out, dispatch)
		case StateCompleted:
			out = append(out, dispatch, completeRecord(r.ID, "", r.Probes, r.Losses))
		case StateFailed:
			out = append(out, dispatch, failRecord(r.ID, r.Err, r.Probes, r.Losses))
		}
	}
	return out
}

// add moves the count of state s by d.
func (jc *JobCounts) add(s State, d int) {
	switch s {
	case StatePending:
		jc.Pending += d
	case StateRunning:
		jc.Running += d
	case StateCompleted:
		jc.Completed += d
	case StateFailed:
		jc.Failed += d
	}
}

// seqSuffix extracts n from a "name#n" instance id.
func seqSuffix(id string) (int, bool) {
	i := strings.LastIndexByte(id, '#')
	if i < 0 {
		return 0, false
	}
	n, err := strconv.Atoi(id[i+1:])
	return n, err == nil
}
