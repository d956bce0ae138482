package jobqueue_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"pimassembler/internal/assembly"
	"pimassembler/internal/engine"
	"pimassembler/internal/genome"
	"pimassembler/internal/jobqueue"
	"pimassembler/internal/metrics"
)

// TestStreamDeterministicSlotOrder pins the Stream's contract: jobs fed
// incrementally yield the same slot-ordered, bit-identical results as a
// batch Run, for any worker count.
func TestStreamDeterministicSlotOrder(t *testing.T) {
	baseline := jobqueue.New(nil, jobqueue.WithWorkers(1)).Run(context.Background(), manifest())
	for _, workers := range []int{1, 3, runtime.NumCPU()} {
		// Sources carry a cursor, so every run gets a fresh manifest.
		specs := manifest()
		q := jobqueue.New(nil, jobqueue.WithWorkers(workers))
		st := q.Stream(context.Background())
		for i, spec := range specs {
			slot, err := st.Submit(spec)
			if err != nil {
				t.Fatalf("workers=%d: Submit %d: %v", workers, i, err)
			}
			if slot != i {
				t.Fatalf("workers=%d: job %d landed in slot %d", workers, i, slot)
			}
		}
		results := st.Drain()
		if len(results) != len(specs) {
			t.Fatalf("workers=%d: %d results for %d jobs", workers, len(results), len(specs))
		}
		for i, r := range results {
			if r.Slot != i || r.State != jobqueue.StateDone {
				t.Fatalf("workers=%d slot %d: slot=%d state=%v err=%v", workers, i, r.Slot, r.State, r.Err)
			}
			got, want := canonical(r.Report), canonical(baseline[i].Report)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("workers=%d slot %d: streamed Report differs from batch Run", workers, i)
			}
		}
	}
}

// TestStreamWait covers per-slot waiting, repeat waiting, and waits issued
// before the job finishes.
func TestStreamWait(t *testing.T) {
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
	slot, err := st.Submit(jobqueue.Spec{Engine: "slow"})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := st.Wait(slot)
			if err != nil || r.State != jobqueue.StateDone {
				t.Errorf("Wait(%d) = %v state %v", slot, err, r.State)
			}
		}()
	}
	close(release)
	wg.Wait()

	// A second Wait on a finished slot returns the same result.
	r, err := st.Wait(slot)
	if err != nil || r.Report == nil || r.Report.Engine != "slow" {
		t.Fatalf("repeat Wait = %v, %+v", err, r.Report)
	}
	if _, err := st.Wait(99); err == nil {
		t.Fatal("Wait on an unsubmitted slot succeeded")
	}
	if _, err := st.Wait(-1); err == nil {
		t.Fatal("Wait on a negative slot succeeded")
	}
}

// TestStreamDequeuesInSubmissionOrder pins the queue discipline: pool slots
// go to jobs in the order they were submitted, so with one worker the jobs
// run in exactly that order.
func TestStreamDequeuesInSubmissionOrder(t *testing.T) {
	const jobs = 32
	var (
		mu    sync.Mutex
		order []int
	)
	engines := make([]engine.Engine, jobs)
	for i := range engines {
		engines[i] = fakeEngine{name: fmt.Sprintf("e%d", i), fn: func(context.Context) (*engine.Report, error) {
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			return okReport("e"), nil
		}}
	}
	st := jobqueue.New(newTestRegistry(t, engines...), jobqueue.WithWorkers(1)).Stream(context.Background())
	for i := 0; i < jobs; i++ {
		if _, err := st.Submit(jobqueue.Spec{Engine: fmt.Sprintf("e%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	st.Drain()
	for i, got := range order {
		if got != i {
			t.Fatalf("jobs ran in order %v", order)
		}
	}
}

// TestStreamSubmitAfterClose is the deadlock regression: a closed stream
// must reject Submit with ErrClosed immediately.
func TestStreamSubmitAfterClose(t *testing.T) {
	q := jobqueue.New(newTestRegistry(t, fakeEngine{name: "ok", fn: func(context.Context) (*engine.Report, error) {
		return okReport("ok"), nil
	}}), jobqueue.WithWorkers(1))
	st := q.Stream(context.Background())
	if _, err := st.Submit(jobqueue.Spec{Engine: "ok"}); err != nil {
		t.Fatal(err)
	}
	st.Close()
	st.Close() // idempotent

	done := make(chan error, 1)
	go func() {
		_, err := st.Submit(jobqueue.Spec{Engine: "ok"})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, jobqueue.ErrClosed) {
			t.Fatalf("Submit after Close = %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Submit after Close deadlocked")
	}

	results := st.Drain()
	if len(results) != 1 || results[0].State != jobqueue.StateDone {
		t.Fatalf("Drain after Close: %+v", results)
	}
}

// TestStreamCancellation: cancelling the session context terminates queued
// and in-flight jobs as Cancelled without wedging Drain.
func TestStreamCancellation(t *testing.T) {
	// Buffered: the engine may get here before the test is receiving, and
	// its non-blocking send must not be lost.
	started := make(chan struct{}, 1)
	block := make(chan struct{})
	defer close(block)
	stuck := fakeEngine{name: "stuck", fn: func(ctx context.Context) (*engine.Report, error) {
		select {
		case started <- struct{}{}:
		default:
		}
		select {
		case <-block:
			return okReport("stuck"), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}}
	ctx, cancel := context.WithCancel(context.Background())
	q := jobqueue.New(newTestRegistry(t, stuck), jobqueue.WithWorkers(1))
	st := q.Stream(ctx)
	for i := 0; i < 3; i++ {
		if _, err := st.Submit(jobqueue.Spec{Engine: "stuck"}); err != nil {
			t.Fatal(err)
		}
	}
	<-started // one job holds the single worker slot
	cancel()
	for i, r := range st.Drain() {
		if r.State != jobqueue.StateCancelled {
			t.Errorf("slot %d: state %v, want cancelled", i, r.State)
		}
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("slot %d: err %v, want context.Canceled", i, r.Err)
		}
	}
}

// TestStreamCounters: streamed submissions report through the same
// instrumentation as batch runs.
func TestStreamCounters(t *testing.T) {
	c := metrics.NewCounters()
	q := jobqueue.New(newTestRegistry(t, fakeEngine{name: "ok", fn: func(context.Context) (*engine.Report, error) {
		return okReport("ok"), nil
	}}), jobqueue.WithWorkers(2), jobqueue.WithCounters(c))
	st := q.Stream(context.Background())
	for i := 0; i < 4; i++ {
		if _, err := st.Submit(jobqueue.Spec{Engine: "ok"}); err != nil {
			t.Fatal(err)
		}
	}
	st.Drain()
	if got := c.Get("jobs.submitted"); got != 4 {
		t.Errorf("jobs.submitted = %d, want 4", got)
	}
	if got := c.Get("jobs.done"); got != 4 {
		t.Errorf("jobs.done = %d, want 4", got)
	}
}

// TestRetryPolicyDelayEdges is the table-driven sweep of the backoff
// schedule's corners: attempt numbers at and below the meaningful range,
// degenerate base backoffs, and doubling far past the overflow point.
func TestRetryPolicyDelayEdges(t *testing.T) {
	const base = 10 * time.Millisecond
	cases := []struct {
		name string
		p    jobqueue.RetryPolicy
		n    int
		want time.Duration
	}{
		{"first retry", jobqueue.RetryPolicy{Backoff: base}, 2, base},
		{"attempt one", jobqueue.RetryPolicy{Backoff: base}, 1, base},
		{"attempt zero", jobqueue.RetryPolicy{Backoff: base}, 0, base},
		{"negative attempt", jobqueue.RetryPolicy{Backoff: base}, -3, base},
		{"zero backoff", jobqueue.RetryPolicy{}, 5, 0},
		{"negative backoff", jobqueue.RetryPolicy{Backoff: -time.Second}, 4, 0},
		{"doubling", jobqueue.RetryPolicy{Backoff: base}, 5, 80 * time.Millisecond},
		{"capped", jobqueue.RetryPolicy{Backoff: base, MaxBackoff: 25 * time.Millisecond}, 5, 25 * time.Millisecond},
		{"cap below base", jobqueue.RetryPolicy{Backoff: base, MaxBackoff: time.Millisecond}, 2, time.Millisecond},
		{"overflow saturates uncapped", jobqueue.RetryPolicy{Backoff: time.Hour}, 200, time.Duration(math.MaxInt64)},
		{"overflow saturates at cap", jobqueue.RetryPolicy{Backoff: time.Hour, MaxBackoff: 24 * time.Hour}, 200, 24 * time.Hour},
		{"max base stays put", jobqueue.RetryPolicy{Backoff: time.Duration(math.MaxInt64)}, 7, time.Duration(math.MaxInt64)},
	}
	for _, c := range cases {
		if got := c.p.Delay(c.n); got != c.want {
			t.Errorf("%s: Delay(%d) = %v, want %v", c.name, c.n, got, c.want)
		}
	}
	// Saturation, not wraparound: the schedule is monotonically
	// non-decreasing and never negative across the whole attempt range.
	p := jobqueue.RetryPolicy{Backoff: time.Hour}
	prev := time.Duration(0)
	for n := 0; n < 300; n++ {
		d := p.Delay(n)
		if d < 0 {
			t.Fatalf("Delay(%d) = %v went negative", n, d)
		}
		if d < prev {
			t.Fatalf("Delay(%d) = %v below Delay(%d) = %v", n, d, n-1, prev)
		}
		prev = d
	}
}

// TestStreamConsumesEngineOptions sanity-checks that specs pass through the
// stream unchanged (the assembly options reach the engine).
func TestStreamConsumesEngineOptions(t *testing.T) {
	var got engine.Options
	probe := fakeEngine{name: "probe", fn: func(context.Context) (*engine.Report, error) {
		return okReport("probe"), nil
	}}
	reg := engine.NewRegistry()
	if err := reg.Register(optionProbe{probe, &got}); err != nil {
		t.Fatal(err)
	}
	st := jobqueue.New(reg, jobqueue.WithWorkers(1)).Stream(context.Background())
	want := engine.Options{Options: assembly.Options{K: 22, MinCount: 3}, Subarrays: 8}
	if _, err := st.Submit(jobqueue.Spec{Engine: "probe", Opts: want}); err != nil {
		t.Fatal(err)
	}
	st.Drain()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("engine saw options %+v, want %+v", got, want)
	}
}

// optionProbe records the Options an Assemble call received.
type optionProbe struct {
	fakeEngine
	got *engine.Options
}

func (p optionProbe) Assemble(ctx context.Context, src genome.ReadSource, opts engine.Options) (*engine.Report, error) {
	*p.got = opts
	return p.fakeEngine.Assemble(ctx, src, opts)
}
