package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"

	"pimassembler/internal/assembly"
	"pimassembler/internal/debruijn"
	"pimassembler/internal/engine"
	"pimassembler/internal/genome"
	"pimassembler/internal/jobqueue"
	"pimassembler/internal/metrics"
)

// MaxBodyBytes is the default bound on one submission's payload
// (Config.MaxBodyBytes overrides); larger workloads belong on the
// out-of-core CLI path (cmd/assemble -spill-dir).
const MaxBodyBytes = 64 << 20

// MaxTenantLabels bounds the cardinality of the per-tenant pending gauge:
// the busiest tenants are labelled individually, the remainder aggregate
// under tenant="other", so unique API keys cannot grow /metrics unboundedly.
const MaxTenantLabels = 16

// PrometheusNamespace prefixes every exported metric name.
const PrometheusNamespace = "pim"

// RetryAfter is the backoff hint attached to 429/503 rejections.
const RetryAfter = 1 * time.Second

// SubmitRequest is the POST /v1/jobs payload: the reads as FASTA/FASTQ
// text plus the engine and pipeline options the CLI exposes as flags.
type SubmitRequest struct {
	// Name optionally labels the job in status output.
	Name string `json:"name,omitempty"`
	// Engine is the registry name of the execution path (see
	// cmd/assemble -list-engines).
	Engine string `json:"engine"`
	// Reads is the workload, FASTA or FASTQ text per Format.
	Reads string `json:"reads"`
	// Format is "fasta" (default) or "fastq".
	Format string `json:"format,omitempty"`
	// K is the k-mer length (default 16). The pipeline options below mean
	// what the CLI's flags of the same name mean, and assembly.Options.Validate
	// rejects the same combinations here (400) as there (exit 2).
	K        int    `json:"k,omitempty"`
	MinCount uint32 `json:"min_count,omitempty"`
	Scaffold bool   `json:"scaffold,omitempty"`
	Simplify bool   `json:"simplify,omitempty"`
	Correct  bool   `json:"correct,omitempty"`
	// Subarrays bounds the functional PIM engine's hash-table spread.
	Subarrays int `json:"subarrays,omitempty"`
	// CountWorkers is how many goroutines fold stage 1's k-mer buckets
	// and count the correction spectrum; contigs are the same for any value.
	CountWorkers int `json:"count_workers,omitempty"`
	// TimeoutMS bounds each attempt (0 = the server's default timeout).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// MaxAttempts overrides the server's retry budget when positive.
	MaxAttempts int `json:"max_attempts,omitempty"`
}

// JobStatus is the status-poll document (also the submit/cancel response).
type JobStatus struct {
	ID       string `json:"id"`
	Tenant   string `json:"tenant"`
	Name     string `json:"name,omitempty"`
	Engine   string `json:"engine"`
	State    string `json:"state"`
	Attempts int    `json:"attempts,omitempty"`
	Error    string `json:"error,omitempty"`
	// Contig statistics, present once the job is done.
	Contigs int `json:"contigs,omitempty"`
	Bases   int `json:"bases,omitempty"`
	N50     int `json:"n50,omitempty"`
	// Wall-clock latencies (non-deterministic, reporting only).
	WaitMS float64 `json:"wait_ms,omitempty"`
	RunMS  float64 `json:"run_ms,omitempty"`
}

// Terminal reports whether the status names a terminal lifecycle state.
func (st JobStatus) Terminal() bool {
	return st.State == jobqueue.StateDone.String() ||
		st.State == jobqueue.StateFailed.String() ||
		st.State == jobqueue.StateCancelled.String()
}

// errorDoc is the JSON error envelope of every non-2xx response.
type errorDoc struct {
	Error string `json:"error"`
}

// Handler returns the daemon's HTTP face:
//
//	POST   /v1/jobs              submit (202, 400, 429, 503)
//	GET    /v1/jobs/{id}         status poll (200, 404)
//	DELETE /v1/jobs/{id}         cancel (202, 404)
//	GET    /v1/jobs/{id}/contigs stream result FASTA (200, 404, 409)
//	GET    /healthz              liveness/drain state (200, 503)
//	GET    /metrics              Prometheus text exposition (200)
//
// Jobs are tenant-scoped by the X-API-Key header (absent = "anonymous"):
// one tenant's IDs are invisible to another.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/contigs", s.handleContigs)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.counters.Add("service.http.requests", 1)
		mux.ServeHTTP(w, r)
		s.counters.Observe("service.latency.http", time.Since(start))
	})
}

// tenantKey resolves the request's tenant.
func tenantKey(r *http.Request) string {
	if k := r.Header.Get("X-API-Key"); k != "" {
		return k
	}
	return DefaultTenant
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	tenant := tenantKey(r)
	var req SubmitRequest
	body := http.MaxBytesReader(w, r.Body, s.bodyLimit)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds the %d-byte limit", tooBig.Limit))
			return
		}
		writeError(w, http.StatusBadRequest, fmt.Sprintf("decoding request body: %v", err))
		return
	}
	spec, err := s.buildSpec(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	j, err := s.submit(tenant, req.Name, spec)
	if err != nil {
		var quota *QuotaError
		switch {
		case errors.As(err, &quota):
			w.Header().Set("Retry-After", retryAfterSeconds())
			writeError(w, http.StatusTooManyRequests, err.Error())
		case errors.Is(err, ErrDraining):
			w.Header().Set("Retry-After", retryAfterSeconds())
			writeError(w, http.StatusServiceUnavailable, err.Error())
		default:
			writeError(w, http.StatusInternalServerError, err.Error())
		}
		return
	}
	writeJSON(w, http.StatusAccepted, s.status(j))
}

// buildSpec validates a submission and compiles it to a queue Spec.
func (s *Server) buildSpec(req SubmitRequest) (jobqueue.Spec, error) {
	if req.Engine == "" {
		return jobqueue.Spec{}, errors.New("missing engine name")
	}
	if _, err := s.registry.Lookup(req.Engine); err != nil {
		return jobqueue.Spec{}, err
	}
	var format genome.Format
	switch strings.ToLower(req.Format) {
	case "", "fasta":
		format = genome.FormatFASTA
	case "fastq":
		format = genome.FormatFASTQ
	default:
		return jobqueue.Spec{}, fmt.Errorf("unknown read format %q (want fasta or fastq)", req.Format)
	}
	opts := engine.Options{
		Options: assembly.Options{
			K:            req.K,
			MinCount:     req.MinCount,
			Scaffold:     req.Scaffold,
			Simplify:     req.Simplify,
			Correct:      req.Correct,
			CountWorkers: req.CountWorkers,
		},
		Subarrays: req.Subarrays,
	}
	if opts.K == 0 {
		opts.K = 16
	}
	// Reject here, as a 400, what could only fail the pipeline's own
	// validation once admitted.
	if err := opts.Validate(); err != nil {
		return jobqueue.Spec{}, err
	}
	reads, err := genome.ReadAll(genome.NewScannerSource(genome.NewScanner(strings.NewReader(req.Reads), format)))
	if err != nil {
		return jobqueue.Spec{}, fmt.Errorf("parsing reads: %v", err)
	}
	if len(reads) == 0 {
		return jobqueue.Spec{}, errors.New("no reads in request")
	}
	timeout := s.defTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	retry := s.retry
	if req.MaxAttempts > 0 {
		retry.MaxAttempts = req.MaxAttempts
	}
	return jobqueue.Spec{
		Name:    req.Name,
		Engine:  req.Engine,
		Source:  genome.NewSliceSource(reads),
		Opts:    opts,
		Timeout: timeout,
		Retry:   retry,
	}, nil
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(tenantKey(r), r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	writeJSON(w, http.StatusOK, s.status(j))
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(tenantKey(r), r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	s.cancelJob(j)
	writeJSON(w, http.StatusAccepted, s.status(j))
}

func (s *Server) handleContigs(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(tenantKey(r), r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	s.mu.Lock()
	state := j.state
	res := j.res
	s.mu.Unlock()
	if state != jobqueue.StateDone || res == nil || res.Report == nil {
		writeError(w, http.StatusConflict, fmt.Sprintf("job is %s, contigs are available once done", state))
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if err := debruijn.WriteContigsFASTA(w, res.Report.Contigs); err != nil {
		// Headers are gone; all we can do is drop the connection.
		s.counters.Add("service.http.write_errors", 1)
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining || s.stopped
	pending := s.pending
	s.mu.Unlock()
	if draining {
		w.Header().Set("Retry-After", retryAfterSeconds())
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining", "pending": pending})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "pending": pending})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	pending := s.pending
	queued := s.queued
	inflight := s.inflight
	highWater := s.highWater
	draining := 0
	if s.draining || s.stopped {
		draining = 1
	}
	tenantPending := make(map[string]int, len(s.tenants))
	for k, t := range s.tenants {
		tenantPending[k] = t.pending
	}
	s.mu.Unlock()

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	gauge := func(name string, v int) {
		full := metrics.PrometheusName(PrometheusNamespace, name)
		fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", full, full, v)
	}
	gauge("service.pending", pending)
	gauge("service.queued", queued)
	gauge("service.inflight", inflight)
	gauge("service.pending_high_water", highWater)
	gauge("service.max_pending", s.maxPending)
	gauge("service.max_pending_per_tenant", s.maxPerTenant)
	gauge("service.draining", draining)
	if len(tenantPending) > 0 {
		full := metrics.PrometheusName(PrometheusNamespace, "service.tenant_pending")
		fmt.Fprintf(w, "# TYPE %s gauge\n", full)
		// Client-supplied API keys are untrusted: sanitize each to the safe
		// label charset (colliding keys sum), then cap cardinality at the
		// busiest MaxTenantLabels with the rest aggregated as "other".
		agg := make(map[string]int, len(tenantPending))
		for k, v := range tenantPending {
			agg[promLabelValue(k)] += v
		}
		if len(agg) > MaxTenantLabels {
			ranked := make([]string, 0, len(agg))
			for k := range agg {
				ranked = append(ranked, k)
			}
			sort.Slice(ranked, func(i, j int) bool {
				if agg[ranked[i]] != agg[ranked[j]] {
					return agg[ranked[i]] > agg[ranked[j]]
				}
				return ranked[i] < ranked[j]
			})
			other := 0
			for _, k := range ranked[MaxTenantLabels-1:] {
				other += agg[k]
				delete(agg, k)
			}
			agg["other"] += other
		}
		keys := make([]string, 0, len(agg))
		for k := range agg {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(w, "%s{tenant=\"%s\"} %d\n", full, k, agg[k])
		}
	}
	if err := metrics.WritePrometheus(w, s.counters, PrometheusNamespace); err != nil {
		s.counters.Add("service.http.write_errors", 1)
	}
}

// status builds a job's status document.
func (s *Server) status(j *job) JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := JobStatus{
		ID:     j.id,
		Tenant: j.tenant,
		Name:   j.name,
		Engine: j.engine,
		State:  j.state.String(),
	}
	if res := j.res; res != nil {
		st.Attempts = res.Attempts
		if res.Err != nil {
			st.Error = res.Err.Error()
		}
		if res.Report != nil && res.Report.Contigs != nil {
			st.Contigs = len(res.Report.Contigs)
			st.Bases = debruijn.TotalBases(res.Report.Contigs)
			st.N50 = debruijn.N50(res.Report.Contigs)
		}
		st.WaitMS = float64(res.Wait) / float64(time.Millisecond)
		st.RunMS = float64(res.Run) / float64(time.Millisecond)
	}
	return st
}

// promLabelValue maps an untrusted tenant key onto a label value that is
// safe to splice into the exposition unescaped: runes outside
// [a-zA-Z0-9_.:@/-] become '_' (so no quotes, backslashes, newlines, or
// escape sequences the strict ParsePrometheus regex rejects) and the value
// is truncated to 64 runes.
func promLabelValue(v string) string {
	const maxRunes = 64
	var sb strings.Builder
	n := 0
	for _, r := range v {
		ok := r == '_' || r == '-' || r == '.' || r == ':' || r == '@' || r == '/' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9')
		if !ok {
			r = '_'
		}
		sb.WriteRune(r)
		if n++; n >= maxRunes {
			break
		}
	}
	return sb.String()
}

func writeJSON(w http.ResponseWriter, status int, doc any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(doc)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorDoc{Error: msg})
}

// retryAfterSeconds renders RetryAfter for the header (whole seconds,
// minimum 1 — the header does not speak fractions).
func retryAfterSeconds() string {
	secs := int(RetryAfter / time.Second)
	if secs < 1 {
		secs = 1
	}
	return fmt.Sprintf("%d", secs)
}
