// Package runner orchestrates batches of probing experiments: it
// turns the paper's sweeps — the same experiment repeated over
// δ ∈ {8, 20, 50, 100, 200, 500} ms, several durations, and several
// seeds — into independent Jobs executed by a worker pool, one
// simulation per goroutine.
//
// Each simulation remains strictly single-threaded (the discrete-event
// engine in internal/sim is untouched); the runner exploits the
// parallelism *between* experiments, which is where the full figure
// reproduction spends its time.
//
// # Determinism
//
// Results are bit-identical regardless of worker count, completion
// order, or scheduling: every job's seed is derived from the root seed
// and its submission index alone (a SplitMix64 hash, see DeriveSeed),
// each job's simulation is self-contained, and results are collected
// in submission order. Running the same job list twice with the same
// root seed — with 1 worker or 64 — produces byte-identical traces.
// Only Result.Wall (host wall-clock time) varies between runs.
//
// # Cancellation and failure isolation
//
// Run honors context cancellation between jobs: pending jobs are
// marked with the context's error and completed results are returned.
// A job that returns an error, or panics, is recorded in its own
// Result.Err without affecting the rest of the batch. A simulation
// cannot be stopped mid-run; retries and deadlines belong to the fleet
// coordinator (internal/coord), not to the pool.
package runner
