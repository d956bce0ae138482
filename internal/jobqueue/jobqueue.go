// Package jobqueue serves concurrent assembly jobs over the engine
// registry. One job — a (read-source, engine-name) pair — runs through
// Queue.Do, the only attempt loop: each attempt under its own per-attempt
// timeout, cancellation at stage boundaries, and deterministic
// retry-with-backoff for transient failures. The package has no worker pool
// of its own: Run fans Do out over parallel.MapWorkers, and callers that
// queue and bound concurrency themselves (the service, the shard
// dispatcher) call Do directly. This is the scaling shape the near-memory
// assembly literature argues for (many workloads multiplexed onto one
// accelerator), built on the seam DESIGN.md §10 left for it.
//
// Determinism: the queue follows internal/parallel's contract — jobs are
// independent (every engine run owns a fresh platform), results land in
// submission-slot order, and any randomness a job needs must be pre-split
// per slot before Run (parallel.SplitRNGs discipline). Under that contract
// the per-job Reports are bit-identical for any worker count; only the
// wall-clock latency series differ. See DESIGN.md §11.
package jobqueue

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"pimassembler/internal/engine"
	"pimassembler/internal/genome"
	"pimassembler/internal/metrics"
	"pimassembler/internal/parallel"
)

// State is a job's lifecycle position: Queued → Running → one of
// Done / Failed / Cancelled.
type State int32

const (
	// StateQueued means the job is accepted but no worker has picked it up.
	StateQueued State = iota
	// StateRunning means a worker is executing an attempt of the job.
	StateRunning
	// StateDone means the job produced a Report.
	StateDone
	// StateFailed means every permitted attempt errored (terminal error or
	// retry budget exhausted).
	StateFailed
	// StateCancelled means the run's context ended before or during the
	// job; Result.Err carries ctx.Err().
	StateCancelled
)

var stateNames = [...]string{
	StateQueued:    "queued",
	StateRunning:   "running",
	StateDone:      "done",
	StateFailed:    "failed",
	StateCancelled: "cancelled",
}

// String implements fmt.Stringer.
func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return "unknown"
}

// RetryPolicy bounds the attempts of one job. Backoff is deterministic
// exponential (base doubling per retry, capped) — no jitter, so a fixed
// manifest replays identically.
type RetryPolicy struct {
	// MaxAttempts is the total attempt budget; values < 1 mean one attempt
	// (no retry).
	MaxAttempts int
	// Backoff is the delay before the second attempt; it doubles per
	// further retry. Zero retries immediately.
	Backoff time.Duration
	// MaxBackoff caps the doubled delay when positive.
	MaxBackoff time.Duration
}

// attempts returns the effective attempt budget.
func (p RetryPolicy) attempts() int {
	if p.MaxAttempts < 1 {
		return 1
	}
	return p.MaxAttempts
}

// Delay returns the backoff before attempt n: the base Backoff doubled per
// further retry, saturating at MaxBackoff when set and at the maximum
// Duration otherwise — the doubling never overflows into a negative delay,
// however large n grows. A non-positive Backoff means no delay; n below 2
// (the first attempt, or a nonsensical attempt number) gets the base
// Backoff.
func (p RetryPolicy) Delay(n int) time.Duration {
	d := p.Backoff
	if d <= 0 {
		return 0
	}
	for i := 2; i < n; i++ {
		if p.MaxBackoff > 0 && d >= p.MaxBackoff {
			return p.MaxBackoff
		}
		if d > math.MaxInt64/2 {
			d = math.MaxInt64
		} else {
			d *= 2
		}
	}
	if p.MaxBackoff > 0 && d > p.MaxBackoff {
		return p.MaxBackoff
	}
	return d
}

// Spec describes one assembly job: a workload plus the engine to run it on,
// resolved through the queue's registry at execution time.
type Spec struct {
	// Name is an optional label for reporting (defaults to the engine name
	// in summaries).
	Name string
	// Engine is the registry name of the execution path (see
	// engine.Names).
	Engine string
	// Source is the workload's read stream (may be nil for counts-only
	// analytical jobs); wrap an in-memory slice in genome.NewSliceSource.
	// Jobs with a retry budget need a resettable source (one implementing
	// Reset() error, like SliceSource or FileSource): the queue rewinds it
	// before every re-attempt, and fails the job terminally if it cannot.
	Source genome.ReadSource
	// Opts configures the engine run.
	Opts engine.Options
	// Timeout bounds each attempt when positive; an attempt that exceeds
	// it fails with context.DeadlineExceeded (transient, hence retryable).
	Timeout time.Duration
	// Retry is the job's attempt budget and backoff schedule.
	Retry RetryPolicy
}

// Result is one job's outcome, in submission-slot order.
type Result struct {
	// Slot is the job's index in the submitted batch.
	Slot int
	// Spec echoes the submitted job.
	Spec Spec
	// State is the terminal lifecycle state.
	State State
	// Report is the engine's unified report (nil unless State is Done).
	Report *engine.Report
	// Err is the terminal error (nil when Done; ctx.Err() when Cancelled).
	Err error
	// Attempts is how many attempts ran (0 when cancelled while queued).
	Attempts int
	// Wait is the wall-clock queue latency (submit → first attempt);
	// Run is the execution latency (first attempt → terminal state).
	// Both are non-deterministic and excluded from deterministic output.
	Wait, Run time.Duration
}

// ErrTransient marks an error as retryable when wrapped; Transient also
// recognises context.DeadlineExceeded (a per-attempt timeout on a stage
// boundary) and any error implementing interface{ Transient() bool }.
var ErrTransient = errors.New("jobqueue: transient failure")

// MarkTransient wraps err so Transient reports it retryable. A nil err
// stays nil.
func MarkTransient(err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%w: %w", ErrTransient, err)
}

// Transient classifies an error as retryable: a per-attempt deadline, an
// explicit ErrTransient mark, or a type asserting Transient() true
// (fault-injected runs surface their flakiness this way).
func Transient(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, ErrTransient) {
		return true
	}
	var t interface{ Transient() bool }
	return errors.As(err, &t) && t.Transient()
}

// Option configures a Queue.
type Option func(*Queue)

// WithWorkers bounds how many jobs Run has in flight (values < 1 fall back
// to parallel.Workers at Run time).
func WithWorkers(n int) Option { return func(q *Queue) { q.workers = n } }

// WithCounters attaches an instrumentation registry; the queue reports the
// jobs.* counters and latency.* series through it.
func WithCounters(c *metrics.Counters) Option { return func(q *Queue) { q.counters = c } }

// Queue runs assembly jobs over an engine registry. A Queue is stateless
// between calls and safe for concurrent Run and Do calls.
type Queue struct {
	reg      *engine.Registry
	workers  int
	counters *metrics.Counters
}

// New builds a queue over reg (nil means the default engine registry).
func New(reg *engine.Registry, opts ...Option) *Queue {
	if reg == nil {
		reg = engine.Default()
	}
	q := &Queue{reg: reg}
	for _, o := range opts {
		o(q)
	}
	return q
}

// Workers returns the effective fan-out width.
func (q *Queue) Workers() int {
	if q.workers > 0 {
		return q.workers
	}
	return parallel.Workers()
}

// Run executes every job and returns the results in submission-slot order:
// one parallel.MapWorkers fan-out whose tasks are Do calls, all admitted
// when Run is called. At most Workers() jobs run concurrently and they
// start in slot order; a cancelled ctx marks in-flight and still-queued
// jobs Cancelled (with ctx.Err()) without affecting jobs that already
// finished — one job's failure never poisons another's result. Run never
// returns a non-positional error: per-job outcomes are in the Results.
func (q *Queue) Run(ctx context.Context, specs []Spec) []Result {
	admitted := time.Now()
	return parallel.MapWorkers(q.Workers(), len(specs), func(i int) Result {
		res := q.Do(ctx, specs[i], admitted)
		res.Slot = i
		return res
	})
}

// Do runs one job to its terminal Result on the caller's goroutine, under
// ctx: the attempt budget, per-attempt deadline, backoff, jobs.* counters
// and latency series. It is the only way a job runs — Run fans Do out over
// a pool, and a caller that does its own queueing and bounds its own
// concurrency (the service's tenant queues, the shard dispatcher) calls it
// directly. admitted is when the caller accepted the job, so Result.Wait
// spans the caller's queue; Slot is left 0 for the caller to set. A ctx
// already done returns Cancelled at once without resolving or touching the
// engine.
func (q *Queue) Do(ctx context.Context, spec Spec, admitted time.Time) Result {
	q.count("jobs.submitted", 1)
	res := Result{Spec: spec}
	if err := ctx.Err(); err != nil {
		// Cancelled while still queued: never ran.
		res.Err = err
		q.finish(&res, StateCancelled)
		return res
	}

	eng, err := q.reg.Lookup(spec.Engine)
	if err != nil {
		// Unknown engine is a submission error, not a transient one.
		res.Err = err
		q.finish(&res, StateFailed)
		return res
	}

	started := time.Now()
	res.Wait = started.Sub(admitted)

	// end settles a job that reached its first attempt: run latency, the
	// latency series, and the terminal state with its counter.
	end := func(st State, err error) Result {
		res.Err = err
		res.Run = time.Since(started)
		q.observeLatency(&res)
		q.finish(&res, st)
		return res
	}

	budget := spec.Retry.attempts()
	for attempt := 1; ; attempt++ {
		if attempt > 1 {
			// A retry replays the workload from the start; a source that
			// cannot rewind would re-run the attempt over an exhausted
			// stream, so it fails the job terminally instead.
			if err := resetSource(spec.Source); err != nil {
				return end(StateFailed, err)
			}
		}
		res.Attempts = attempt
		q.count("jobs.attempts", 1)
		rep, err := q.runAttempt(ctx, eng, spec)
		if err == nil {
			res.Report = rep
			return end(StateDone, nil)
		}
		if ctx.Err() != nil {
			// The run (not the attempt) was cancelled: report ctx.Err() so
			// callers see the cancellation, whatever the engine returned.
			return end(StateCancelled, ctx.Err())
		}
		if attempt >= budget || !Transient(err) {
			return end(StateFailed, err)
		}
		q.count("jobs.retries", 1)
		if err := sleep(ctx, spec.Retry.Delay(attempt+1)); err != nil {
			return end(StateCancelled, err)
		}
	}
}

// runAttempt executes one attempt under the job's per-attempt deadline.
func (q *Queue) runAttempt(ctx context.Context, eng engine.Engine, spec Spec) (*engine.Report, error) {
	if spec.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, spec.Timeout)
		defer cancel()
	}
	return eng.Assemble(ctx, spec.Source, spec.Opts)
}

// resetSource rewinds a job's read source before a retry attempt. A nil
// source needs no rewind; a non-resettable one is a terminal error.
func resetSource(src genome.ReadSource) error {
	if src == nil {
		return nil
	}
	r, ok := src.(interface{ Reset() error })
	if !ok {
		return fmt.Errorf("jobqueue: cannot retry: read source %T is not resettable", src)
	}
	if err := r.Reset(); err != nil {
		return fmt.Errorf("jobqueue: resetting read source for retry: %w", err)
	}
	return nil
}

// finish records the terminal state and its counter.
func (q *Queue) finish(res *Result, s State) {
	res.State = s
	q.count("jobs."+s.String(), 1)
}

// observeLatency reports the job's wall-clock series.
func (q *Queue) observeLatency(res *Result) {
	if q.counters == nil {
		return
	}
	q.counters.Observe("latency.queue", res.Wait)
	q.counters.Observe("latency.run", res.Run)
}

// count bumps a queue counter when instrumentation is attached.
func (q *Queue) count(name string, delta int64) {
	if q.counters != nil {
		q.counters.Add(name, delta)
	}
}

// sleep waits d or until ctx ends, whichever is first.
func sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
