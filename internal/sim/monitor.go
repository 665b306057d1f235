package sim

import "time"

// Monitor samples a queue's backlog at a fixed interval, producing the
// queue-length time series behind the paper's observation of "rapid
// fluctuations of queueing delays over small intervals" (Abstract,
// and the dynamics discussion of Section 1 citing [28, 29]).
type Monitor struct {
	sched    *Scheduler
	queue    *Queue
	interval time.Duration
	horizon  time.Duration
	samples  []int
}

// NewMonitor returns a monitor sampling q.Len() every interval until
// horizon. Call Start to begin sampling.
func NewMonitor(sched *Scheduler, q *Queue, interval, horizon time.Duration) *Monitor {
	if interval <= 0 {
		panic("sim: non-positive monitor interval")
	}
	return &Monitor{sched: sched, queue: q, interval: interval, horizon: horizon}
}

// Start schedules the first sample at the current time.
func (m *Monitor) Start() { m.sched.schedule(m.sched.Now(), m, nil) }

// fire records one sample and schedules the next.
func (m *Monitor) fire(*Packet) {
	n := m.queue.Len()
	if m.queue.Busy() {
		n++
	}
	m.samples = append(m.samples, n)
	next := m.sched.Now() + m.interval
	if next > m.horizon {
		return
	}
	m.sched.schedule(next, m, nil)
}

// Samples returns the recorded backlog series (packets in system).
func (m *Monitor) Samples() []int {
	return append([]int(nil), m.samples...)
}

// SamplesFloat returns the series as float64 for the stats package.
func (m *Monitor) SamplesFloat() []float64 {
	out := make([]float64, len(m.samples))
	for i, v := range m.samples {
		out[i] = float64(v)
	}
	return out
}
