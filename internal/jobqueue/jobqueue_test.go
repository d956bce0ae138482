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
	"pimassembler/internal/stats"
)

// workload builds the deterministic read set the queue tests dispatch.
func workload(seed uint64, n int) []*genome.Sequence {
	rng := stats.NewRNG(seed)
	ref := genome.GenerateGenome(2_000, rng)
	return genome.NewReadSampler(ref, 101, 0, rng).Sample(n)
}

// manifest is the fixed job mix of the determinism test: every engine
// family, two distinct workloads.
func manifest() []jobqueue.Spec {
	a, b := workload(11, 150), workload(12, 120)
	opts := engine.Options{Options: assembly.Options{K: 16}, Subarrays: 16}
	counts := assembly.PaperOpCounts(genome.PaperChr14(), 16)
	return []jobqueue.Spec{
		{Engine: "software", Source: genome.NewSliceSource(a), Opts: opts},
		{Engine: "pim", Source: genome.NewSliceSource(a), Opts: opts},
		{Engine: "pim-assembler", Source: genome.NewSliceSource(b), Opts: opts},
		{Engine: "drisa-3t1c", Opts: engine.Options{Counts: &counts}},
		{Engine: "software", Source: genome.NewSliceSource(b), Opts: opts},
		{Engine: "gpu", Source: genome.NewSliceSource(b), Opts: opts},
	}
}

// canonical strips the one wall-clock block (the software family's stage
// timings) so Reports compare bit-identically across worker counts.
func canonical(rep *engine.Report) *engine.Report {
	if rep == nil {
		return nil
	}
	c := *rep
	c.Timings = nil
	return &c
}

// TestRunDeterministic pins the queue's determinism rule: a fixed manifest
// yields identical per-job Reports in slot order for any worker count.
func TestRunDeterministic(t *testing.T) {
	var baseline []jobqueue.Result
	for _, workers := range []int{1, 4, runtime.NumCPU()} {
		// Sources carry a cursor, so every run gets a fresh manifest.
		specs := manifest()
		q := jobqueue.New(nil, jobqueue.WithWorkers(workers))
		results := q.Run(context.Background(), specs)
		if len(results) != len(specs) {
			t.Fatalf("workers=%d: %d results for %d specs", workers, len(results), len(specs))
		}
		for i, r := range results {
			if r.Slot != i {
				t.Fatalf("workers=%d: result %d carries slot %d", workers, i, r.Slot)
			}
			if r.State != jobqueue.StateDone || r.Err != nil {
				t.Fatalf("workers=%d slot=%d: state=%v err=%v", workers, i, r.State, r.Err)
			}
			if r.Attempts != 1 {
				t.Fatalf("workers=%d slot=%d: %d attempts", workers, i, r.Attempts)
			}
		}
		if results[0].Report.Timings == nil {
			t.Fatal("software job lost its wall-clock timings")
		}
		if baseline == nil {
			baseline = results
			continue
		}
		for i := range results {
			got, want := canonical(results[i].Report), canonical(baseline[i].Report)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("workers=%d slot=%d: Report differs from workers=1 run", workers, i)
			}
		}
	}
}

// fakeEngine is a scriptable registry entry for lifecycle tests.
type fakeEngine struct {
	name string
	fn   func(ctx context.Context) (*engine.Report, error)
}

func (e fakeEngine) Name() string     { return e.name }
func (e fakeEngine) Describe() string { return "test stub" }
func (e fakeEngine) Assemble(ctx context.Context, _ genome.ReadSource, _ engine.Options) (*engine.Report, error) {
	return e.fn(ctx)
}

func newTestRegistry(t *testing.T, engines ...engine.Engine) *engine.Registry {
	t.Helper()
	r := engine.NewRegistry()
	for _, e := range engines {
		if err := r.Register(e); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

func okReport(name string) *engine.Report {
	return &engine.Report{Engine: name, Family: engine.FamilySoftware}
}

// TestRetryTransient pins retry-with-backoff: a job failing transiently
// succeeds within its attempt budget, and the retry counter records it.
func TestRetryTransient(t *testing.T) {
	var mu sync.Mutex
	calls := 0
	flaky := fakeEngine{name: "flaky", fn: func(context.Context) (*engine.Report, error) {
		mu.Lock()
		defer mu.Unlock()
		calls++
		if calls < 3 {
			return nil, jobqueue.MarkTransient(fmt.Errorf("injected fault %d", calls))
		}
		return okReport("flaky"), nil
	}}
	c := metrics.NewCounters()
	q := jobqueue.New(newTestRegistry(t, flaky), jobqueue.WithWorkers(2), jobqueue.WithCounters(c))
	res := q.Run(context.Background(), []jobqueue.Spec{{
		Engine: "flaky",
		Retry:  jobqueue.RetryPolicy{MaxAttempts: 5, Backoff: time.Microsecond},
	}})[0]
	if res.State != jobqueue.StateDone || res.Err != nil {
		t.Fatalf("state=%v err=%v", res.State, res.Err)
	}
	if res.Attempts != 3 {
		t.Fatalf("attempts = %d, want 3", res.Attempts)
	}
	if got := c.Get("jobs.retries"); got != 2 {
		t.Fatalf("jobs.retries = %d, want 2", got)
	}
	if got := c.Get("jobs.done"); got != 1 {
		t.Fatalf("jobs.done = %d, want 1", got)
	}
}

// TestTerminalFailureNoRetry pins that a non-transient error consumes one
// attempt only.
func TestTerminalFailureNoRetry(t *testing.T) {
	terminal := errors.New("bad workload")
	broken := fakeEngine{name: "broken", fn: func(context.Context) (*engine.Report, error) {
		return nil, terminal
	}}
	q := jobqueue.New(newTestRegistry(t, broken), jobqueue.WithWorkers(1))
	res := q.Run(context.Background(), []jobqueue.Spec{{
		Engine: "broken",
		Retry:  jobqueue.RetryPolicy{MaxAttempts: 4, Backoff: time.Microsecond},
	}})[0]
	if res.State != jobqueue.StateFailed || !errors.Is(res.Err, terminal) {
		t.Fatalf("state=%v err=%v", res.State, res.Err)
	}
	if res.Attempts != 1 {
		t.Fatalf("attempts = %d, want 1", res.Attempts)
	}
}

// TestRetryBudgetExhausted pins that a persistently transient job fails
// after exactly MaxAttempts attempts.
func TestRetryBudgetExhausted(t *testing.T) {
	always := fakeEngine{name: "always", fn: func(context.Context) (*engine.Report, error) {
		return nil, jobqueue.MarkTransient(errors.New("still flaky"))
	}}
	q := jobqueue.New(newTestRegistry(t, always), jobqueue.WithWorkers(1))
	res := q.Run(context.Background(), []jobqueue.Spec{{
		Engine: "always",
		Retry:  jobqueue.RetryPolicy{MaxAttempts: 3, Backoff: time.Microsecond},
	}})[0]
	if res.State != jobqueue.StateFailed || !jobqueue.Transient(res.Err) {
		t.Fatalf("state=%v err=%v", res.State, res.Err)
	}
	if res.Attempts != 3 {
		t.Fatalf("attempts = %d, want 3", res.Attempts)
	}
}

// TestPerJobTimeoutDoesNotPoison pins the isolation rule: an in-flight job
// that exceeds its per-attempt deadline returns ctx.Err() while every other
// job completes normally.
func TestPerJobTimeoutDoesNotPoison(t *testing.T) {
	hang := fakeEngine{name: "hang", fn: func(ctx context.Context) (*engine.Report, error) {
		<-ctx.Done() // a well-behaved engine returns ctx.Err() at the next stage boundary
		return nil, ctx.Err()
	}}
	fast := fakeEngine{name: "fast", fn: func(context.Context) (*engine.Report, error) {
		return okReport("fast"), nil
	}}
	c := metrics.NewCounters()
	q := jobqueue.New(newTestRegistry(t, hang, fast), jobqueue.WithWorkers(4), jobqueue.WithCounters(c))
	results := q.Run(context.Background(), []jobqueue.Spec{
		{Engine: "fast"},
		{Engine: "hang", Timeout: 10 * time.Millisecond, Retry: jobqueue.RetryPolicy{MaxAttempts: 2, Backoff: time.Microsecond}},
		{Engine: "fast"},
		{Engine: "fast"},
	})
	if got := results[1]; got.State != jobqueue.StateFailed || !errors.Is(got.Err, context.DeadlineExceeded) {
		t.Fatalf("hanging job: state=%v err=%v", got.State, got.Err)
	}
	if results[1].Attempts != 2 {
		t.Fatalf("deadline is transient: attempts = %d, want 2", results[1].Attempts)
	}
	for _, i := range []int{0, 2, 3} {
		if r := results[i]; r.State != jobqueue.StateDone || r.Err != nil || r.Report == nil {
			t.Fatalf("sibling job %d poisoned: state=%v err=%v", i, r.State, r.Err)
		}
	}
	if got := c.Get("jobs.done"); got != 3 {
		t.Fatalf("jobs.done = %d, want 3", got)
	}
	if got := c.Get("jobs.failed"); got != 1 {
		t.Fatalf("jobs.failed = %d, want 1", got)
	}
}

// TestCancellation pins run-level cancellation: an in-flight job returns
// ctx.Err(), jobs that already finished keep their Reports, and jobs still
// queued are cancelled without ever running.
func TestCancellation(t *testing.T) {
	started := make(chan struct{})
	hang := fakeEngine{name: "hang", fn: func(ctx context.Context) (*engine.Report, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	}}
	fast := fakeEngine{name: "fast", fn: func(context.Context) (*engine.Report, error) {
		return okReport("fast"), nil
	}}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Worker width 1 forces strict slot order: fast(0) finishes, hang(1)
	// blocks, fast(2) never starts before the cancel.
	q := jobqueue.New(newTestRegistry(t, hang, fast), jobqueue.WithWorkers(1))
	done := make(chan []jobqueue.Result, 1)
	go func() { done <- q.Run(ctx, []jobqueue.Spec{{Engine: "fast"}, {Engine: "hang"}, {Engine: "fast"}}) }()
	<-started
	cancel()
	results := <-done

	if r := results[0]; r.State != jobqueue.StateDone || r.Report == nil {
		t.Fatalf("finished job lost its result: %+v", r)
	}
	if r := results[1]; r.State != jobqueue.StateCancelled || !errors.Is(r.Err, context.Canceled) {
		t.Fatalf("in-flight job: state=%v err=%v", r.State, r.Err)
	}
	if r := results[2]; r.State != jobqueue.StateCancelled || r.Attempts != 0 {
		t.Fatalf("queued job: state=%v attempts=%d err=%v", r.State, r.Attempts, r.Err)
	}
}

// TestUnknownEngineFails pins that an unresolvable engine name is a
// terminal submission error naming the valid engines.
func TestUnknownEngineFails(t *testing.T) {
	q := jobqueue.New(nil, jobqueue.WithWorkers(1))
	res := q.Run(context.Background(), []jobqueue.Spec{{Engine: "no-such-engine"}})[0]
	if res.State != jobqueue.StateFailed || res.Err == nil || res.Attempts != 0 {
		t.Fatalf("state=%v attempts=%d err=%v", res.State, res.Attempts, res.Err)
	}
}

// TestCounters pins the queue's instrumentation totals and that latency
// series are populated.
func TestCounters(t *testing.T) {
	fast := fakeEngine{name: "fast", fn: func(context.Context) (*engine.Report, error) {
		return okReport("fast"), nil
	}}
	c := metrics.NewCounters()
	q := jobqueue.New(newTestRegistry(t, fast), jobqueue.WithWorkers(2), jobqueue.WithCounters(c))
	q.Run(context.Background(), []jobqueue.Spec{{Engine: "fast"}, {Engine: "fast"}, {Engine: "fast"}})
	if got := c.Get("jobs.submitted"); got != 3 {
		t.Fatalf("jobs.submitted = %d, want 3", got)
	}
	if got := c.Get("jobs.done"); got != 3 {
		t.Fatalf("jobs.done = %d, want 3", got)
	}
	if got := c.Get("jobs.attempts"); got != 3 {
		t.Fatalf("jobs.attempts = %d, want 3", got)
	}
	_, lats := c.SnapshotAll()
	if l := lats["latency.run"]; l.Count != 3 {
		t.Fatalf("latency.run count = %d, want 3", l.Count)
	}
}

// TestRetryPolicyDelay pins the deterministic exponential schedule.
func TestRetryPolicyDelay(t *testing.T) {
	p := jobqueue.RetryPolicy{MaxAttempts: 6, Backoff: 10 * time.Millisecond, MaxBackoff: 35 * time.Millisecond}
	want := map[int]time.Duration{
		2: 10 * time.Millisecond,
		3: 20 * time.Millisecond,
		4: 35 * time.Millisecond, // 40ms capped
		5: 35 * time.Millisecond,
	}
	for n, d := range want {
		if got := p.Delay(n); got != d {
			t.Errorf("delay before attempt %d = %v, want %v", n, got, d)
		}
	}
	uncapped := jobqueue.RetryPolicy{Backoff: time.Millisecond}
	if got := uncapped.Delay(4); got != 4*time.Millisecond {
		t.Errorf("uncapped delay = %v, want 4ms", got)
	}
}

// TestStateString covers the lifecycle names used in counters and CLIs.
func TestStateString(t *testing.T) {
	cases := map[jobqueue.State]string{
		jobqueue.StateQueued:    "queued",
		jobqueue.StateRunning:   "running",
		jobqueue.StateDone:      "done",
		jobqueue.StateFailed:    "failed",
		jobqueue.StateCancelled: "cancelled",
	}
	for s, name := range cases {
		if s.String() != name {
			t.Errorf("State(%d).String() = %q, want %q", s, s.String(), name)
		}
	}
}

// TestTransientClassification covers the retryability matrix.
func TestTransientClassification(t *testing.T) {
	if jobqueue.Transient(nil) {
		t.Error("nil classified transient")
	}
	if !jobqueue.Transient(context.DeadlineExceeded) {
		t.Error("deadline not transient")
	}
	if jobqueue.Transient(context.Canceled) {
		t.Error("cancellation classified transient")
	}
	if !jobqueue.Transient(jobqueue.MarkTransient(errors.New("x"))) {
		t.Error("marked error not transient")
	}
	if jobqueue.MarkTransient(nil) != nil {
		t.Error("MarkTransient(nil) != nil")
	}
	if !jobqueue.Transient(transientErr{}) {
		t.Error("Transient() interface not honoured")
	}
}

type transientErr struct{}

func (transientErr) Error() string   { return "transient by interface" }
func (transientErr) Transient() bool { return true }

// TestRunDequeuesInSlotOrder pins the queue discipline: jobs start in slot
// order, so with one worker they run in exactly that order.
func TestRunDequeuesInSlotOrder(t *testing.T) {
	const jobs = 32
	var (
		mu    sync.Mutex
		order []int
	)
	engines := make([]engine.Engine, jobs)
	specs := make([]jobqueue.Spec, jobs)
	for i := range engines {
		engines[i] = fakeEngine{name: fmt.Sprintf("e%d", i), fn: func(context.Context) (*engine.Report, error) {
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			return okReport("e"), nil
		}}
		specs[i] = jobqueue.Spec{Engine: fmt.Sprintf("e%d", i)}
	}
	jobqueue.New(newTestRegistry(t, engines...), jobqueue.WithWorkers(1)).Run(context.Background(), specs)
	if len(order) != jobs {
		t.Fatalf("%d of %d jobs ran", len(order), jobs)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("jobs ran in order %v", order)
		}
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

// TestRunConsumesEngineOptions sanity-checks that specs pass through the
// queue unchanged (the assembly options reach the engine).
func TestRunConsumesEngineOptions(t *testing.T) {
	var got engine.Options
	probe := fakeEngine{name: "probe", fn: func(context.Context) (*engine.Report, error) {
		return okReport("probe"), nil
	}}
	reg := engine.NewRegistry()
	if err := reg.Register(optionProbe{probe, &got}); err != nil {
		t.Fatal(err)
	}
	want := engine.Options{Options: assembly.Options{K: 22, MinCount: 3}, Subarrays: 8}
	jobqueue.New(reg, jobqueue.WithWorkers(1)).Run(context.Background(), []jobqueue.Spec{{Engine: "probe", Opts: want}})
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
