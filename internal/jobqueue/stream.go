package jobqueue

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrClosed is returned by Stream.Submit after Close: a closed stream
// rejects new work with a terminal error instead of deadlocking the caller.
var ErrClosed = errors.New("jobqueue: stream closed")

// Stream is the incremental face of a Queue: a caller Submits jobs one at a
// time as they arrive (the shard dispatcher, as its admission gate lets
// shards through) and Waits on individual slots — or Drains the lot —
// while the bounded worker pool executes at most Workers() jobs
// concurrently, handing pool slots out in submission order. A caller with
// its own queue and its own concurrency bound runs jobs with Queue.Do
// instead. Slots are assigned in submission order and results are keyed by
// slot, so the deterministic-output contract of Queue.Run carries over: for
// independent jobs the per-slot Results are bit-identical whatever the
// worker count or submission timing.
//
// A Stream is safe for concurrent Submit, Wait, Close, and Drain calls.
type Stream struct {
	q   *Queue
	ctx context.Context
	sem chan struct{}

	mu     sync.Mutex
	jobs   []*pendingJob
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
		// Pool slots go to jobs in submission order: wait for the job ahead
		// to leave the queue before competing for one.
		if ahead != nil {
			select {
			case <-ahead:
			case <-s.ctx.Done():
			}
		}
		select {
		case s.sem <- struct{}{}:
			defer func() { <-s.sem }()
		case <-s.ctx.Done():
			// Cancelled while queued for a pool slot; runJob observes the
			// dead context immediately and records the cancellation.
		}
		close(dequeued)
		p.res = s.q.runJob(s.ctx, slot, spec, submitted)
	}()
	return slot, nil
}

// Wait blocks until the job in slot reaches a terminal state and returns
// its Result. Waiting on a slot that was never submitted is an error.
// Multiple goroutines may Wait on the same slot.
func (s *Stream) Wait(slot int) (Result, error) {
	s.mu.Lock()
	n := len(s.jobs)
	if slot < 0 || slot >= n {
		s.mu.Unlock()
		return Result{}, fmt.Errorf("jobqueue: no slot %d (submitted %d)", slot, n)
	}
	p := s.jobs[slot]
	s.mu.Unlock()
	<-p.done
	return p.res, nil
}

// Close stops further submissions; already-submitted jobs keep running.
// Close is idempotent and safe to call concurrently with Submit.
func (s *Stream) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
}

// Drain closes the stream, waits for every submitted job, and returns all
// results in submission-slot order.
func (s *Stream) Drain() []Result {
	s.Close()
	s.mu.Lock()
	jobs := append([]*pendingJob(nil), s.jobs...)
	s.mu.Unlock()
	out := make([]Result, len(jobs))
	for i, p := range jobs {
		<-p.done
		out[i] = p.res
	}
	return out
}
