// Package service is the repository's front door: a long-lived HTTP daemon
// serving multi-tenant assembly jobs. It owns the only queue a job waits
// in — per-tenant FIFOs under a fixed pending-job budget per tenant and
// globally (a full budget answers 429 + Retry-After instead of queueing
// unboundedly), dispatched round-robin across tenants onto at most Workers
// concurrent jobqueue.Queue.Do calls, which bring the attempt budget, the
// per-attempt deadline and the jobs.* counters — and a graceful drain state
// machine (stop admitting, finish or cancel in-flight jobs within a
// deadline, then stop), plus a Prometheus /metrics endpoint exporting the
// shared metrics.Counters. See DESIGN.md §16.
//
// Determinism: the service inherits the queue's contract. Job payloads are
// parsed to the same read sets the CLI loads, every job runs on a fresh
// engine platform, and contigs stream back byte-identical to a direct
// jobqueue.Run of the same specs — whatever the worker count, tenant mix,
// or submission timing. Only the wall-clock latency series differ.
package service

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"pimassembler/internal/engine"
	"pimassembler/internal/jobqueue"
	"pimassembler/internal/metrics"
	"pimassembler/internal/parallel"
)

// Admission defaults; Config overrides them per server.
const (
	// DefaultMaxPending is the global admitted-but-unfinished job budget.
	DefaultMaxPending = 64
	// DefaultMaxPendingPerTenant is the per-tenant share of that budget.
	DefaultMaxPendingPerTenant = 16
	// DefaultTenant is the tenant key of requests without an X-API-Key.
	DefaultTenant = "anonymous"
	// DefaultResultTTL is how long a terminal job's record (including its
	// contigs) stays pollable before the sweeper evicts it.
	DefaultResultTTL = 15 * time.Minute
	// DefaultMaxRetainedPerTenant caps the terminal records kept per
	// tenant; beyond it the oldest result is evicted immediately.
	DefaultMaxRetainedPerTenant = 64
)

// Config parameterises a Server. The zero value is serviceable: default
// registry, GOMAXPROCS workers, default budgets, fresh counters.
type Config struct {
	// Registry resolves engine names (nil = engine.Default()).
	Registry *engine.Registry
	// Workers bounds concurrently running jobs (0 = parallel.Workers()).
	Workers int
	// MaxPending is the global admission budget: jobs admitted but not yet
	// terminal. At the budget, submissions are rejected with a QuotaError
	// (HTTP 429), never queued. 0 = DefaultMaxPending.
	MaxPending int
	// MaxPendingPerTenant is the per-tenant admission budget.
	// 0 = DefaultMaxPendingPerTenant.
	MaxPendingPerTenant int
	// DefaultTimeout bounds each attempt of jobs that name no timeout.
	DefaultTimeout time.Duration
	// ResultTTL bounds how long terminal jobs stay pollable: a background
	// sweeper evicts older records so memory tracks the admission budget,
	// not total jobs ever served. 0 = DefaultResultTTL; negative disables
	// TTL eviction (the per-tenant cap still applies).
	ResultTTL time.Duration
	// MaxRetainedPerTenant caps terminal records kept per tenant, oldest
	// evicted first. 0 = DefaultMaxRetainedPerTenant.
	MaxRetainedPerTenant int
	// MaxBodyBytes bounds one submission's payload (0 = MaxBodyBytes).
	MaxBodyBytes int64
	// Retry is the attempt budget applied to every job (a request's
	// max_attempts overrides MaxAttempts).
	Retry jobqueue.RetryPolicy
	// Counters receives the service.* and jobs.* instrumentation
	// (nil = a fresh registry, readable via Counters()).
	Counters *metrics.Counters
}

// ErrDraining rejects submissions while the server drains or after it
// stopped; HTTP maps it to 503 + Retry-After.
var ErrDraining = errors.New("service: draining, not accepting jobs")

// QuotaError reports an admission budget at capacity; HTTP maps it to
// 429 + Retry-After. Scope names the exhausted budget.
type QuotaError struct {
	Scope   string // "global" or the tenant key
	Pending int
	Limit   int
}

// Error implements error.
func (e *QuotaError) Error() string {
	if e.Scope == "global" {
		return fmt.Sprintf("service: global pending budget exhausted (%d/%d)", e.Pending, e.Limit)
	}
	return fmt.Sprintf("service: tenant %q pending budget exhausted (%d/%d)", e.Scope, e.Pending, e.Limit)
}

// job is one admitted submission's record, protected by Server.mu except
// for the immutable identity fields.
type job struct {
	id        string
	tenant    string
	name      string
	engine    string
	spec      jobqueue.Spec
	submitted time.Time
	ctx       context.Context
	cancel    context.CancelFunc
	state     jobqueue.State
	finished  time.Time
	res       *jobqueue.Result
	done      chan struct{}
}

// tenant aggregates one API key's admission state: its FIFO of
// not-yet-dispatched jobs, its pending (admitted, non-terminal) count, and
// its retained terminal records (finish order, oldest first) awaiting
// eviction by the retention policy.
type tenant struct {
	key      string
	queue    []*job
	pending  int
	retained []*job
}

// Server is the daemon: admission control, the tenant queues and fair
// dispatch, plus the HTTP face in http.go. Construct with New;
// every Server must eventually be shut down with Drain or Close.
type Server struct {
	registry     *engine.Registry
	workers      int
	maxPending   int
	maxPerTenant int
	defTimeout   time.Duration
	resultTTL    time.Duration
	maxRetained  int
	bodyLimit    int64
	retry        jobqueue.RetryPolicy
	counters     *metrics.Counters
	queue        *jobqueue.Queue
	ctx          context.Context
	cancel       context.CancelFunc

	mu             sync.Mutex
	cond           *sync.Cond
	jobs           map[string]*job
	tenants        map[string]*tenant
	active         []*tenant  // round-robin ring of tenants with queued jobs
	pending        int        // admitted, non-terminal
	queued         int        // admitted, not yet dispatched
	inflight       int        // dispatched, not yet terminal
	highWater      int        // max pending ever observed
	stats          DrainStats // terminal tallies, survive record eviction
	nextID         int
	draining       bool
	stopped        bool
	dispatcherDone chan struct{}
	sweeperDone    chan struct{}
}

// New builds a Server and starts its dispatcher. The server accepts jobs
// immediately; call Drain (or Close) to shut it down.
func New(cfg Config) *Server {
	reg := cfg.Registry
	if reg == nil {
		reg = engine.Default()
	}
	workers := cfg.Workers
	if workers < 1 {
		workers = parallel.Workers()
	}
	maxPending := cfg.MaxPending
	if maxPending < 1 {
		maxPending = DefaultMaxPending
	}
	maxPerTenant := cfg.MaxPendingPerTenant
	if maxPerTenant < 1 {
		maxPerTenant = DefaultMaxPendingPerTenant
	}
	if maxPerTenant > maxPending {
		maxPerTenant = maxPending
	}
	resultTTL := cfg.ResultTTL
	if resultTTL == 0 {
		resultTTL = DefaultResultTTL
	}
	maxRetained := cfg.MaxRetainedPerTenant
	if maxRetained < 1 {
		maxRetained = DefaultMaxRetainedPerTenant
	}
	bodyLimit := cfg.MaxBodyBytes
	if bodyLimit <= 0 {
		bodyLimit = MaxBodyBytes
	}
	counters := cfg.Counters
	if counters == nil {
		counters = metrics.NewCounters()
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		registry:       reg,
		workers:        workers,
		maxPending:     maxPending,
		maxPerTenant:   maxPerTenant,
		defTimeout:     cfg.DefaultTimeout,
		resultTTL:      resultTTL,
		maxRetained:    maxRetained,
		bodyLimit:      bodyLimit,
		retry:          cfg.Retry,
		counters:       counters,
		queue:          jobqueue.New(reg, jobqueue.WithCounters(counters)),
		ctx:            ctx,
		cancel:         cancel,
		jobs:           make(map[string]*job),
		tenants:        make(map[string]*tenant),
		dispatcherDone: make(chan struct{}),
		sweeperDone:    make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	go s.dispatch()
	if resultTTL > 0 {
		go s.sweep(sweepInterval(resultTTL))
	} else {
		close(s.sweeperDone)
	}
	return s
}

// sweepInterval picks the sweeper cadence for a TTL: a quarter of it,
// clamped so short test TTLs still sweep promptly and long ones do not
// wake more than once a minute.
func sweepInterval(ttl time.Duration) time.Duration {
	iv := ttl / 4
	if iv < 10*time.Millisecond {
		iv = 10 * time.Millisecond
	}
	if iv > time.Minute {
		iv = time.Minute
	}
	return iv
}

// Counters exposes the server's instrumentation registry.
func (s *Server) Counters() *metrics.Counters { return s.counters }

// Workers returns the concurrent-job bound.
func (s *Server) Workers() int { return s.workers }

// MaxPending returns the global admission budget.
func (s *Server) MaxPending() int { return s.maxPending }

// MaxPendingPerTenant returns the per-tenant admission budget.
func (s *Server) MaxPendingPerTenant() int { return s.maxPerTenant }

// Pending returns the admitted-but-unfinished job count — by construction
// never above MaxPending.
func (s *Server) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pending
}

// submit admits one job or rejects it with ErrDraining / *QuotaError. The
// spec must already be validated (engine name, parsed reads).
func (s *Server) submit(tenantKey, name string, spec jobqueue.Spec) (*job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining || s.stopped {
		s.counters.Add("service.rejected.draining", 1)
		return nil, ErrDraining
	}
	if s.pending >= s.maxPending {
		s.counters.Add("service.rejected.quota", 1)
		return nil, &QuotaError{Scope: "global", Pending: s.pending, Limit: s.maxPending}
	}
	t := s.tenants[tenantKey]
	if t == nil {
		t = &tenant{key: tenantKey}
		s.tenants[tenantKey] = t
	}
	if t.pending >= s.maxPerTenant {
		s.counters.Add("service.rejected.quota", 1)
		return nil, &QuotaError{Scope: tenantKey, Pending: t.pending, Limit: s.maxPerTenant}
	}

	s.nextID++
	ctx, cancel := context.WithCancel(s.ctx)
	j := &job{
		id:        fmt.Sprintf("j-%d", s.nextID),
		tenant:    tenantKey,
		name:      name,
		engine:    spec.Engine,
		spec:      spec,
		submitted: time.Now(),
		ctx:       ctx,
		cancel:    cancel,
		state:     jobqueue.StateQueued,
		done:      make(chan struct{}),
	}
	s.jobs[j.id] = j
	if len(t.queue) == 0 {
		s.active = append(s.active, t)
	}
	t.queue = append(t.queue, j)
	t.pending++
	s.pending++
	s.queued++
	if s.pending > s.highWater {
		s.highWater = s.pending
	}
	s.counters.Add("service.submitted", 1)
	s.cond.Broadcast()
	return j, nil
}

// lookup resolves a job visible to tenantKey (jobs are tenant-scoped: a
// foreign or unknown ID is indistinguishably absent).
func (s *Server) lookup(tenantKey, id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[id]
	if j == nil || j.tenant != tenantKey {
		return nil
	}
	return j
}

// dispatch is the fairness loop: whenever a worker slot is free and a
// tenant has queued jobs, it pops the next tenant off the round-robin ring,
// starts that tenant's oldest job, and re-queues the tenant at the back of
// the ring — so a tenant with a deep backlog cannot starve one with a single
// job. It exits when the server stops.
func (s *Server) dispatch() {
	defer close(s.dispatcherDone)
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		for !s.stopped && (s.queued == 0 || s.inflight >= s.workers) {
			s.cond.Wait()
		}
		if s.stopped {
			return
		}
		t := s.active[0]
		s.active = s.active[1:]
		j := t.queue[0]
		t.queue = t.queue[1:]
		if len(t.queue) > 0 {
			s.active = append(s.active, t)
		}
		s.queued--
		s.inflight++
		j.state = jobqueue.StateRunning
		go s.run(j)
	}
}

// run takes one dispatched job to its terminal result and gives the worker
// slot back. Drain returns only once every admitted job is terminal, which
// is what waits for these goroutines.
func (s *Server) run(j *job) {
	res := s.queue.Do(j.ctx, j.spec, j.submitted)
	s.mu.Lock()
	s.inflight--
	s.finishLocked(j, res)
	s.mu.Unlock()
}

// finishLocked records a job's terminal result and applies the retention
// policy: the record joins its tenant's retained FIFO (so status
// and contigs stay pollable), the per-tenant cap evicts the oldest result
// beyond it, and the terminal tally survives any later eviction. Callers
// hold mu.
func (s *Server) finishLocked(j *job, res jobqueue.Result) {
	j.res = &res
	j.state = res.State
	j.finished = time.Now()
	j.cancel()
	close(j.done)
	s.pending--
	switch res.State {
	case jobqueue.StateDone:
		s.stats.Done++
	case jobqueue.StateFailed:
		s.stats.Failed++
	case jobqueue.StateCancelled:
		s.stats.Cancelled++
	}
	t := s.tenants[j.tenant]
	t.pending--
	t.retained = append(t.retained, j)
	for len(t.retained) > s.maxRetained {
		s.evictOldestLocked(t)
	}
	s.cond.Broadcast()
}

// evictOldestLocked drops a tenant's oldest retained terminal record,
// releasing the job (and its contig report) for collection. Callers hold mu.
func (s *Server) evictOldestLocked(t *tenant) {
	j := t.retained[0]
	t.retained[0] = nil
	t.retained = t.retained[1:]
	delete(s.jobs, j.id)
	s.counters.Add("service.evicted", 1)
}

// dropTenantIfIdleLocked removes a tenant record with no admitted jobs and
// no retained results, so the tenant map (and the /metrics label set)
// tracks live tenants rather than every key ever seen. Callers hold mu.
func (s *Server) dropTenantIfIdleLocked(t *tenant) {
	if t.pending == 0 && len(t.queue) == 0 && len(t.retained) == 0 {
		delete(s.tenants, t.key)
	}
}

// sweep is the retention loop: every interval it evicts terminal records
// older than the TTL and drops idle tenants. It exits when the server's
// context is cancelled at the end of Drain.
func (s *Server) sweep(interval time.Duration) {
	defer close(s.sweeperDone)
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-s.ctx.Done():
			return
		case <-tick.C:
			s.evictExpired(time.Now())
		}
	}
}

// evictExpired applies the TTL half of the retention policy.
func (s *Server) evictExpired(now time.Time) {
	cutoff := now.Add(-s.resultTTL)
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, t := range s.tenants {
		for len(t.retained) > 0 && t.retained[0].finished.Before(cutoff) {
			s.evictOldestLocked(t)
		}
		s.dropTenantIfIdleLocked(t)
	}
}

// cancelJob cancels one job. A running job sees its context end at the next
// read or stage boundary and records Cancelled when its attempt returns. A
// queued job leaves its tenant's FIFO (and the tenant the ring, if that was
// its last) and is recorded Cancelled here, so its admission slot is free
// before any worker is.
func (s *Server) cancelJob(j *job) {
	j.cancel()
	s.mu.Lock()
	defer s.mu.Unlock()
	if j.state != jobqueue.StateQueued {
		return
	}
	t := s.tenants[j.tenant]
	t.queue = slices.DeleteFunc(t.queue, func(q *job) bool { return q == j })
	if len(t.queue) == 0 {
		s.active = slices.DeleteFunc(s.active, func(a *tenant) bool { return a == t })
	}
	s.queued--
	// Do on a dead context returns at once, engine untouched: it is here so
	// the result and the jobs.* counters are the queue's own.
	s.finishLocked(j, s.queue.Do(j.ctx, j.spec, j.submitted))
}

// BeginDrain stops admission (idempotent): new submissions get ErrDraining,
// /healthz turns 503, in-flight and queued jobs keep running.
func (s *Server) BeginDrain() {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		s.counters.Add("service.drains", 1)
	}
	s.cond.Broadcast()
	s.mu.Unlock()
}

// DrainStats tallies the terminal states of every job the server ever
// admitted, reported by Drain.
type DrainStats struct {
	Done, Failed, Cancelled int
}

// String implements fmt.Stringer.
func (d DrainStats) String() string {
	return fmt.Sprintf("%d done, %d failed, %d cancelled", d.Done, d.Failed, d.Cancelled)
}

// Drain is the graceful-shutdown state machine: stop admitting, let
// in-flight and queued jobs finish until ctx expires, then cancel whatever
// remains and wait for it to record Cancelled. It returns once every
// admitted job is terminal and the dispatcher has exited; the server is
// then stopped for good. Safe to call once; Close is the
// cancel-immediately variant.
func (s *Server) Drain(ctx context.Context) DrainStats {
	s.BeginDrain()
	// cond.Wait cannot select on ctx, so expiry pokes the waiters.
	stop := context.AfterFunc(ctx, func() {
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	})
	defer stop()

	s.mu.Lock()
	for s.pending > 0 && ctx.Err() == nil {
		s.cond.Wait()
	}
	expired := s.pending > 0
	s.mu.Unlock()

	if expired {
		// Deadline passed: cancel every remaining job's context (they are
		// all children of s.ctx). Running attempts observe it at the next
		// stage boundary; still-queued jobs are dispatched into their dead
		// context and record Cancelled immediately.
		s.cancel()
		s.mu.Lock()
		for s.pending > 0 {
			s.cond.Wait()
		}
		s.mu.Unlock()
	}

	s.mu.Lock()
	s.stopped = true
	s.cond.Broadcast()
	s.mu.Unlock()
	<-s.dispatcherDone
	s.cancel()
	<-s.sweeperDone

	// The running tally, not a scan of s.jobs: retention may already have
	// evicted long-finished records, but every admitted job was counted
	// exactly once when it turned terminal.
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Close shuts down immediately: every non-terminal job is cancelled and the
// server stops. It is Drain with an already-expired deadline.
func (s *Server) Close() DrainStats {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return s.Drain(ctx)
}
