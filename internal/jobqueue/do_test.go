package jobqueue_test

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"pimassembler/internal/assembly"
	"pimassembler/internal/engine"
	"pimassembler/internal/genome"
	"pimassembler/internal/jobqueue"
	"pimassembler/internal/metrics"
)

// TestDoCancelsOneJob pins per-job cancellation on the single-job call:
// cancelling one Do's context ends that job (Cancelled, ctx.Err()) while a
// neighbour on the same queue finishes normally, the counters tally both,
// and Wait runs from the admission instant the caller passed in.
func TestDoCancelsOneJob(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 2)
	slow := fakeEngine{name: "slow", fn: func(ctx context.Context) (*engine.Report, error) {
		started <- struct{}{}
		select {
		case <-release:
			return okReport("slow"), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}}
	c := metrics.NewCounters()
	q := jobqueue.New(newTestRegistry(t, slow), jobqueue.WithCounters(c))

	jobCtx, cancelJob := context.WithCancel(context.Background())
	defer cancelJob()
	admitted := time.Now().Add(-time.Hour)
	doomed, survivor := make(chan jobqueue.Result, 1), make(chan jobqueue.Result, 1)
	go func() { doomed <- q.Do(jobCtx, jobqueue.Spec{Engine: "slow"}, admitted) }()
	go func() { survivor <- q.Do(context.Background(), jobqueue.Spec{Engine: "slow"}, admitted) }()
	<-started
	<-started

	cancelJob()
	res := <-doomed
	if res.State != jobqueue.StateCancelled || !errors.Is(res.Err, context.Canceled) {
		t.Fatalf("doomed job: state=%v err=%v, want cancelled/context.Canceled", res.State, res.Err)
	}
	close(release)
	res = <-survivor
	if res.State != jobqueue.StateDone || res.Attempts != 1 {
		t.Fatalf("survivor: state=%v attempts=%d err=%v, want done after 1 attempt", res.State, res.Attempts, res.Err)
	}
	if res.Wait < time.Hour {
		t.Errorf("Wait = %v, want it to span the hour since admission", res.Wait)
	}

	// A context that is already dead never reaches the engine.
	res = q.Do(jobCtx, jobqueue.Spec{Engine: "no-such-engine"}, time.Now())
	if res.State != jobqueue.StateCancelled || res.Attempts != 0 {
		t.Fatalf("dead-context job: state=%v attempts=%d, want cancelled with no attempt", res.State, res.Attempts)
	}
	for name, want := range map[string]int64{
		"jobs.submitted": 3, "jobs.attempts": 2, "jobs.done": 1, "jobs.cancelled": 2,
	} {
		if got := c.Get(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	_, lats := c.SnapshotAll()
	if l := lats["latency.queue"]; l.Count != 2 {
		t.Errorf("latency.queue count = %d, want 2 (one per job that started)", l.Count)
	}
}

// blockingSource serves reads until its at-th Next, which announces itself
// on blocked and returns its read only once release closes. It counts every
// Next.
type blockingSource struct {
	src     *genome.SliceSource
	at      int64
	blocked chan struct{}
	release <-chan struct{}
	calls   atomic.Int64
}

func (s *blockingSource) NextCodes() ([]byte, error) {
	if s.calls.Add(1) == s.at {
		close(s.blocked)
		<-s.release
	}
	return s.src.NextCodes()
}

// TestCancellationReachesRunningAssembly pins that a job's context is
// observed inside a running assembly, not only around it: a source blocks
// mid-stream until the job is cancelled and then hands its read over as if
// nothing happened. The pipeline must stop there — no further read pulled —
// the job ends Cancelled, and the queue runs the next job.
func TestCancellationReachesRunningAssembly(t *testing.T) {
	for _, name := range []string{"software", "pim", "gpu"} {
		t.Run(name, func(t *testing.T) {
			q := jobqueue.New(nil)
			opts := engine.Options{Options: assembly.Options{K: 16}, Subarrays: 16}

			jobCtx, cancelJob := context.WithCancel(context.Background())
			defer cancelJob()
			src := &blockingSource{
				src: genome.NewSliceSource(workload(31, 60)), at: 20,
				blocked: make(chan struct{}), release: jobCtx.Done(),
			}
			doomed := make(chan jobqueue.Result, 1)
			go func() {
				doomed <- q.Do(jobCtx, jobqueue.Spec{Engine: name, Source: src, Opts: opts}, time.Now())
			}()

			<-src.blocked
			cancelJob()
			res := <-doomed
			if res.State != jobqueue.StateCancelled || !errors.Is(res.Err, context.Canceled) {
				t.Fatalf("state=%v err=%v, want cancelled/context.Canceled", res.State, res.Err)
			}
			if got := src.calls.Load(); got != src.at {
				t.Errorf("the assembly pulled %d reads after its context was cancelled", got-src.at)
			}
			next := jobqueue.Spec{Engine: name, Source: genome.NewSliceSource(workload(32, 60)), Opts: opts}
			if res = q.Do(context.Background(), next, time.Now()); res.State != jobqueue.StateDone {
				t.Fatalf("job after the cancelled one: state=%v err=%v, want done", res.State, res.Err)
			}
		})
	}
}
