package jobqueue

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// ErrClosed is returned by Stream.Submit after Close: a closed stream
// rejects new work with a terminal error instead of deadlocking the caller.
var ErrClosed = errors.New("jobqueue: stream closed")

// Stream is the incremental face of a Queue: a long-lived caller Submits
// jobs one at a time as they arrive (a shard splitter, a network server, a
// tail -f of a manifest) and Waits on individual slots — or Drains the lot
// — while the bounded worker pool executes at most Workers() jobs
// concurrently, handing pool slots out in submission order. Slots are
// assigned in submission order and results are keyed by slot, so the
// deterministic-output contract of Queue.Run carries over: for independent
// jobs the per-slot Results are bit-identical whatever the worker count or
// submission timing.
//
// A Stream is safe for concurrent Submit, Wait, Close, and Drain calls.
type Stream struct {
	q   *Queue
	ctx context.Context
	sem chan struct{}

	// completed counts jobs that reached a terminal state; Depth is
	// Submitted minus this.
	completed atomic.Int64

	mu     sync.Mutex
	jobs   []*pendingJob // nil once taken
	ahead  chan struct{} // closed when the latest submission leaves the queue
	closed bool
}

// pendingJob is one submitted job's landing place; done is closed when res
// is final, broadcasting to every waiter.
type pendingJob struct {
	done chan struct{}
	res  Result
}

// Stream opens an incremental submission session over the queue. Jobs run
// under ctx exactly as in Run: cancelling ctx marks queued and in-flight
// jobs Cancelled without affecting finished ones.
func (q *Queue) Stream(ctx context.Context) *Stream {
	return &Stream{q: q, ctx: ctx, sem: make(chan struct{}, q.Workers())}
}

// Submit enqueues one job and returns its slot. It never blocks on the
// worker pool — execution is handed to a goroutine that waits for a pool
// slot — and returns ErrClosed after Close instead of deadlocking.
func (s *Stream) Submit(spec Spec) (int, error) {
	return s.SubmitCtx(s.ctx, spec)
}

// SubmitCtx enqueues one job like Submit, but the job runs under ctx
// instead of the stream's context — the hook a front-door service uses for
// per-job cancellation and deadlines. Derive ctx from the stream's context
// so cancelling the stream still cancels every job; a nil ctx falls back to
// the stream's own. Cancelling ctx while the job waits for a pool slot (or
// mid-run, at a stage boundary) records the job Cancelled exactly as
// Queue.Run would.
func (s *Stream) SubmitCtx(ctx context.Context, spec Spec) (int, error) {
	if ctx == nil {
		ctx = s.ctx
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return -1, ErrClosed
	}
	slot := len(s.jobs)
	p := &pendingJob{done: make(chan struct{})}
	s.jobs = append(s.jobs, p)
	// dequeued closes once this job holds a pool slot (or was cancelled
	// waiting for one); the next submission queues behind it.
	ahead, dequeued := s.ahead, make(chan struct{})
	s.ahead = dequeued
	s.mu.Unlock()

	s.q.count("jobs.submitted", 1)
	submitted := time.Now()
	go func() {
		defer close(p.done)
		defer s.completed.Add(1)
		// Pool slots go to jobs in submission order: wait for the job ahead
		// to leave the queue before competing for one.
		if ahead != nil {
			select {
			case <-ahead:
			case <-ctx.Done():
			}
		}
		select {
		case s.sem <- struct{}{}:
			defer func() { <-s.sem }()
		case <-ctx.Done():
			// Cancelled while queued for a pool slot; runJob observes the
			// dead context immediately and records the cancellation.
		}
		close(dequeued)
		p.res = s.q.runJob(ctx, slot, spec, submitted)
	}()
	return slot, nil
}

// Depth returns the queue depth: jobs submitted but not yet terminal. It
// is the gauge a bounded-admission front door watches — with admission
// capped upstream, Depth never exceeds that budget plus the pool width.
func (s *Stream) Depth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	// completed is read while the mutex pins len(s.jobs): a job completes
	// only after its submission appended it, so the difference cannot go
	// negative; the clamp is belt and braces.
	if d := len(s.jobs) - int(s.completed.Load()); d > 0 {
		return d
	}
	return 0
}

// Wait blocks until the job in slot reaches a terminal state and returns
// its Result. Waiting on a slot that was never submitted, or that Take
// already handed over, is an error. Multiple goroutines may Wait on the
// same slot.
func (s *Stream) Wait(slot int) (Result, error) {
	s.mu.Lock()
	var p *pendingJob
	if slot >= 0 && slot < len(s.jobs) {
		p = s.jobs[slot]
	}
	n := len(s.jobs)
	s.mu.Unlock()
	if p == nil {
		return Result{}, fmt.Errorf("jobqueue: no slot %d (submitted %d; a taken slot is gone)", slot, n)
	}
	<-p.done
	return p.res, nil
}

// Take is Wait for a caller that keeps the Result itself: once the job is
// terminal the stream drops its own reference, so the Result — Spec.Source
// and Report included — lives exactly as long as the caller holds it. A
// long-lived stream whose results are all taken retains one nil pointer per
// job. The slot still counts in Submitted and Depth; a later Wait or Take on
// it is an error, and Drain reports it as a zero Result.
func (s *Stream) Take(slot int) (Result, error) {
	r, err := s.Wait(slot)
	if err == nil {
		s.mu.Lock()
		s.jobs[slot] = nil
		s.mu.Unlock()
	}
	return r, err
}

// Close stops further submissions; already-submitted jobs keep running.
// Close is idempotent and safe to call concurrently with Submit.
func (s *Stream) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
}

// Drain closes the stream, waits for every submitted job, and returns all
// results in submission-slot order (the zero Result for a taken slot).
func (s *Stream) Drain() []Result {
	s.Close()
	s.mu.Lock()
	jobs := append([]*pendingJob(nil), s.jobs...)
	s.mu.Unlock()
	out := make([]Result, len(jobs))
	for i, p := range jobs {
		if p == nil {
			continue
		}
		<-p.done
		out[i] = p.res
	}
	return out
}
