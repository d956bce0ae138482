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
)

// TestStreamSubmitCtxCancelsOneJob pins per-job cancellation: cancelling a
// SubmitCtx context ends that job (Cancelled, ctx.Err()) while its
// neighbours on the same stream finish normally.
func TestStreamSubmitCtxCancelsOneJob(t *testing.T) {
	release := make(chan struct{})
	slow := fakeEngine{name: "slow", fn: func(ctx context.Context) (*engine.Report, error) {
		select {
		case <-release:
			return okReport("slow"), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}}
	q := jobqueue.New(newTestRegistry(t, slow), jobqueue.WithWorkers(2))
	st := q.Stream(context.Background())

	jobCtx, cancelJob := context.WithCancel(context.Background())
	defer cancelJob()
	doomed, err := st.SubmitCtx(jobCtx, jobqueue.Spec{Engine: "slow"})
	if err != nil {
		t.Fatal(err)
	}
	survivor, err := st.Submit(jobqueue.Spec{Engine: "slow"})
	if err != nil {
		t.Fatal(err)
	}

	cancelJob()
	res, err := st.Wait(doomed)
	if err != nil {
		t.Fatal(err)
	}
	if res.State != jobqueue.StateCancelled || !errors.Is(res.Err, context.Canceled) {
		t.Fatalf("doomed job: state=%v err=%v, want cancelled/context.Canceled", res.State, res.Err)
	}

	close(release)
	res, err = st.Wait(survivor)
	if err != nil {
		t.Fatal(err)
	}
	if res.State != jobqueue.StateDone {
		t.Fatalf("survivor: state=%v err=%v, want done", res.State, res.Err)
	}
}

// TestStreamSubmitCtxNilFallsBack pins that a nil per-job context inherits
// the stream's context.
func TestStreamSubmitCtxNilFallsBack(t *testing.T) {
	ok := fakeEngine{name: "ok", fn: func(context.Context) (*engine.Report, error) {
		return okReport("ok"), nil
	}}
	q := jobqueue.New(newTestRegistry(t, ok), jobqueue.WithWorkers(1))
	st := q.Stream(context.Background())
	slot, err := st.SubmitCtx(nil, jobqueue.Spec{Engine: "ok", Source: genome.NewSliceSource(nil)})
	if err != nil {
		t.Fatal(err)
	}
	res, err := st.Wait(slot)
	if err != nil {
		t.Fatal(err)
	}
	if res.State != jobqueue.StateDone {
		t.Fatalf("state=%v err=%v, want done", res.State, res.Err)
	}
}

// TestStreamDepth pins the queue-depth gauge: it rises with submissions,
// falls as jobs finish, and ends at zero after Drain.
func TestStreamDepth(t *testing.T) {
	release := make(chan struct{})
	slow := fakeEngine{name: "slow", fn: func(ctx context.Context) (*engine.Report, error) {
		select {
		case <-release:
			return okReport("slow"), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}}
	q := jobqueue.New(newTestRegistry(t, slow), jobqueue.WithWorkers(2))
	st := q.Stream(context.Background())
	if d := st.Depth(); d != 0 {
		t.Fatalf("fresh stream depth = %d, want 0", d)
	}
	for i := 0; i < 3; i++ {
		if _, err := st.Submit(jobqueue.Spec{Engine: "slow"}); err != nil {
			t.Fatal(err)
		}
	}
	if d := st.Depth(); d != 3 {
		t.Fatalf("depth with 3 in-flight jobs = %d, want 3", d)
	}
	close(release)
	results := st.Drain()
	for i, r := range results {
		if r.State != jobqueue.StateDone {
			t.Fatalf("slot %d: state=%v err=%v", i, r.State, r.Err)
		}
	}
	// Drain waits on every job's done channel, and the depth accounting
	// settles before done closes.
	deadline := time.Now().Add(5 * time.Second)
	for st.Depth() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("depth stuck at %d after Drain", st.Depth())
		}
		time.Sleep(time.Millisecond)
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

func (s *blockingSource) Next() (*genome.Sequence, error) {
	if s.calls.Add(1) == s.at {
		close(s.blocked)
		<-s.release
	}
	return s.src.Next()
}

// TestCancellationReachesRunningAssembly pins that a job's context is
// observed inside a running assembly, not only around it: a source blocks
// mid-stream until the job is cancelled and then hands its read over as if
// nothing happened. The pipeline must stop there — no further read pulled —
// the job ends Cancelled, and its pool slot goes to the next job.
func TestCancellationReachesRunningAssembly(t *testing.T) {
	for _, name := range []string{"software", "pim", "gpu"} {
		t.Run(name, func(t *testing.T) {
			q := jobqueue.New(nil, jobqueue.WithWorkers(1))
			st := q.Stream(context.Background())
			opts := engine.Options{Options: assembly.Options{K: 16}, Subarrays: 16}

			jobCtx, cancelJob := context.WithCancel(context.Background())
			defer cancelJob()
			src := &blockingSource{
				src: genome.NewSliceSource(workload(31, 60)), at: 20,
				blocked: make(chan struct{}), release: jobCtx.Done(),
			}
			doomed, err := st.SubmitCtx(jobCtx, jobqueue.Spec{Engine: name, Source: src, Opts: opts})
			if err != nil {
				t.Fatal(err)
			}
			next, err := st.Submit(jobqueue.Spec{Engine: name, Source: genome.NewSliceSource(workload(32, 60)), Opts: opts})
			if err != nil {
				t.Fatal(err)
			}

			<-src.blocked
			cancelJob()
			res, err := st.Wait(doomed)
			if err != nil {
				t.Fatal(err)
			}
			if res.State != jobqueue.StateCancelled || !errors.Is(res.Err, context.Canceled) {
				t.Fatalf("state=%v err=%v, want cancelled/context.Canceled", res.State, res.Err)
			}
			if got := src.calls.Load(); got != src.at {
				t.Errorf("the assembly pulled %d reads after its context was cancelled", got-src.at)
			}
			if res, err = st.Wait(next); err != nil || res.State != jobqueue.StateDone {
				t.Fatalf("job behind the cancelled one: state=%v err=%v (%v), want done", res.State, res.Err, err)
			}
		})
	}
}
