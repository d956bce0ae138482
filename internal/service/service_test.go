package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pimassembler/internal/debruijn"
	"pimassembler/internal/engine"
	"pimassembler/internal/genome"
	"pimassembler/internal/jobqueue"
	"pimassembler/internal/stats"
)

// fastaWorkload renders a deterministic sampled read set as FASTA text —
// the exact payload a client would POST.
func fastaWorkload(t *testing.T, seed uint64, genomeLen, reads int) string {
	t.Helper()
	rng := stats.NewRNG(seed)
	ref := genome.GenerateGenome(genomeLen, rng)
	seqs := genome.NewReadSampler(ref, 101, 0, rng).Sample(reads)
	records := make([]genome.Record, len(seqs))
	for i, s := range seqs {
		records[i] = genome.Record{Name: fmt.Sprintf("r%d", i), Seq: s}
	}
	var sb strings.Builder
	if err := genome.WriteFASTA(&sb, records); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// cancelJob requests one job's cancellation through the client, as DELETE
// /v1/jobs/{id}.
func cancelJob(ctx context.Context, c *Client, id string) (JobStatus, error) {
	var st JobStatus
	err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+id, nil, &st)
	return st, err
}

// testEngine is a scriptable engine for lifecycle tests.
type testEngine struct {
	name string
	fn   func(ctx context.Context, src genome.ReadSource) (*engine.Report, error)
}

func (e testEngine) Name() string     { return e.name }
func (e testEngine) Describe() string { return "test stub" }
func (e testEngine) Assemble(ctx context.Context, src genome.ReadSource, _ engine.Options) (*engine.Report, error) {
	return e.fn(ctx, src)
}

// testRegistry bundles the real software engine with any stubs.
func testRegistry(t *testing.T, stubs ...engine.Engine) *engine.Registry {
	t.Helper()
	r := engine.NewRegistry()
	software, err := engine.Default().Lookup("software")
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Register(software); err != nil {
		t.Fatal(err)
	}
	for _, e := range stubs {
		if err := r.Register(e); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

// blockingEngine runs until the returned release func is called (or the
// job's context ends, which reports ctx.Err()).
func blockingEngine(name string) (engine.Engine, func()) {
	release := make(chan struct{})
	var once sync.Once
	e := testEngine{name: name, fn: func(ctx context.Context, _ genome.ReadSource) (*engine.Report, error) {
		select {
		case <-release:
			return &engine.Report{Engine: name, Family: engine.FamilySoftware}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}}
	return e, func() { once.Do(func() { close(release) }) }
}

// startServer builds a Server + httptest front and tears both down.
func startServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Drain(ctx)
	})
	return srv, ts
}

func postJob(t *testing.T, ts *httptest.Server, apiKey string, req SubmitRequest) *http.Response {
	t.Helper()
	buf, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	if apiKey != "" {
		hr.Header.Set("X-API-Key", apiKey)
	}
	resp, err := ts.Client().Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestHandlerErrors is the table-driven rejection matrix of the HTTP face.
func TestHandlerErrors(t *testing.T) {
	reads := fastaWorkload(t, 7, 600, 30)
	_, ts := startServer(t, Config{Workers: 1})
	cases := []struct {
		name       string
		method     string
		path       string
		body       string
		wantStatus int
	}{
		{"bad engine name", "POST", "/v1/jobs",
			`{"engine":"warp-drive","reads":` + mustJSON(reads) + `}`, http.StatusBadRequest},
		{"missing engine", "POST", "/v1/jobs",
			`{"reads":` + mustJSON(reads) + `}`, http.StatusBadRequest},
		{"malformed JSON", "POST", "/v1/jobs", `{"engine":`, http.StatusBadRequest},
		{"no reads", "POST", "/v1/jobs", `{"engine":"software","reads":""}`, http.StatusBadRequest},
		{"bad read text", "POST", "/v1/jobs",
			`{"engine":"software","reads":">r0\nNOPE!\n"}`, http.StatusBadRequest},
		{"bad format", "POST", "/v1/jobs",
			`{"engine":"software","format":"sam","reads":` + mustJSON(reads) + `}`, http.StatusBadRequest},
		{"k out of range", "POST", "/v1/jobs",
			`{"engine":"software","k":64,"reads":` + mustJSON(reads) + `}`, http.StatusBadRequest},
		{"scaffold with k too small for an overlap", "POST", "/v1/jobs",
			`{"engine":"software","k":4,"scaffold":true,"reads":` + mustJSON(reads) + `}`, http.StatusBadRequest},
		{"pim hash region beyond the geometry", "POST", "/v1/jobs",
			`{"engine":"pim","subarrays":40000,"reads":` + mustJSON(reads) + `}`, http.StatusBadRequest},
		{"unknown job ID", "GET", "/v1/jobs/j-999", "", http.StatusNotFound},
		{"unknown job contigs", "GET", "/v1/jobs/j-999/contigs", "", http.StatusNotFound},
		{"unknown job cancel", "DELETE", "/v1/jobs/j-999", "", http.StatusNotFound},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var body *bytes.Reader
			if tc.body != "" {
				body = bytes.NewReader([]byte(tc.body))
			} else {
				body = bytes.NewReader(nil)
			}
			req, err := http.NewRequest(tc.method, ts.URL+tc.path, body)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := ts.Client().Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.wantStatus)
			}
			var doc errorDoc
			if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil || doc.Error == "" {
				t.Fatalf("error envelope missing (err=%v, doc=%+v)", err, doc)
			}
		})
	}
}

func mustJSON(s string) string {
	buf, err := json.Marshal(s)
	if err != nil {
		panic(err)
	}
	return string(buf)
}

// TestTenantIsolation pins that one tenant's job IDs are invisible (404)
// to another tenant.
func TestTenantIsolation(t *testing.T) {
	reads := fastaWorkload(t, 8, 600, 30)
	_, ts := startServer(t, Config{Workers: 2})
	alice := &Client{BaseURL: ts.URL, APIKey: "alice"}
	bob := &Client{BaseURL: ts.URL, APIKey: "bob"}
	ctx := context.Background()

	st, err := alice.Submit(ctx, SubmitRequest{Engine: "software", Reads: reads})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bob.Status(ctx, st.ID); !isStatus(err, http.StatusNotFound) {
		t.Fatalf("bob sees alice's job: err=%v", err)
	}
	if _, err := alice.Wait(ctx, st.ID, 0); err != nil {
		t.Fatal(err)
	}
}

func isStatus(err error, code int) bool {
	apiErr, ok := err.(*APIError)
	return ok && apiErr.StatusCode == code
}

// TestQuotaBackpressure pins bounded admission: at the per-tenant and
// global budgets, submissions are rejected 429 with a Retry-After header —
// never queued — and capacity admits again once a job finishes.
func TestQuotaBackpressure(t *testing.T) {
	block, release := blockingEngine("block")
	defer release()
	srv, ts := startServer(t, Config{
		Registry:            testRegistry(t, block),
		Workers:             1,
		MaxPending:          3,
		MaxPendingPerTenant: 2,
	})
	reads := fastaWorkload(t, 9, 600, 20)
	ctx := context.Background()
	a := &Client{BaseURL: ts.URL, APIKey: "a"}
	b := &Client{BaseURL: ts.URL, APIKey: "b"}

	// Tenant a fills its own budget (2); the worker blocks on the first.
	first, err := a.Submit(ctx, SubmitRequest{Engine: "block", Reads: reads})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Submit(ctx, SubmitRequest{Engine: "block", Reads: reads}); err != nil {
		t.Fatal(err)
	}
	resp := postJob(t, ts, "a", SubmitRequest{Engine: "block", Reads: reads})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota tenant: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After header")
	}
	resp.Body.Close()

	// Tenant b still has its own budget, but the global cap (3) admits
	// exactly one more.
	if _, err := b.Submit(ctx, SubmitRequest{Engine: "block", Reads: reads}); err != nil {
		t.Fatal(err)
	}
	resp = postJob(t, ts, "b", SubmitRequest{Engine: "block", Reads: reads})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over global budget: status %d, want 429", resp.StatusCode)
	}
	resp.Body.Close()
	if got := srv.Pending(); got != 3 {
		t.Fatalf("pending = %d, want 3 (the budget)", got)
	}
	if hw := srv.HighWater(); hw > 3 {
		t.Fatalf("high water %d exceeded the budget 3", hw)
	}

	// Draining the blocked jobs frees capacity again.
	release()
	if _, err := a.Wait(ctx, first.ID, 0); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return srv.Pending() == 0 })
	if _, err := a.Submit(ctx, SubmitRequest{Engine: "software", Reads: reads}); err != nil {
		t.Fatalf("submit after capacity freed: %v", err)
	}
}

// HighWater returns the maximum Pending ever observed: the evidence the
// admission tests hold against the budget.
func (s *Server) HighWater() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.highWater
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestCancelMidRun pins DELETE: a running job ends Cancelled and reports
// that state (and its error) on the status poll.
func TestCancelMidRun(t *testing.T) {
	block, release := blockingEngine("block")
	defer release()
	_, ts := startServer(t, Config{Registry: testRegistry(t, block), Workers: 1})
	c := &Client{BaseURL: ts.URL}
	ctx := context.Background()
	reads := fastaWorkload(t, 10, 600, 20)

	st, err := c.Submit(ctx, SubmitRequest{Engine: "block", Reads: reads})
	if err != nil {
		t.Fatal(err)
	}
	// Let it reach the engine before cancelling.
	waitFor(t, 5*time.Second, func() bool {
		cur, err := c.Status(ctx, st.ID)
		return err == nil && cur.State == "running"
	})
	if _, err := cancelJob(ctx, c, st.ID); err != nil {
		t.Fatal(err)
	}
	final, err := c.Wait(ctx, st.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != "cancelled" {
		t.Fatalf("state = %q, want cancelled", final.State)
	}
	if final.Error == "" {
		t.Fatal("cancelled job reports no error")
	}
}

// TestCancelQueuedFreesSlot pins DELETE on a job no worker has picked up:
// it leaves its tenant's queue and records Cancelled at once — while the
// only worker is still busy — so a tenant at its budget makes room by
// cancelling.
func TestCancelQueuedFreesSlot(t *testing.T) {
	block, release := blockingEngine("block")
	defer release()
	srv, ts := startServer(t, Config{Registry: testRegistry(t, block), Workers: 1, MaxPendingPerTenant: 2})
	c := &Client{BaseURL: ts.URL, APIKey: "a"}
	ctx := context.Background()
	reads := fastaWorkload(t, 11, 600, 20)

	blocker, err := c.Submit(ctx, SubmitRequest{Engine: "block", Reads: reads})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool {
		cur, err := c.Status(ctx, blocker.ID)
		return err == nil && cur.State == "running"
	})
	queued, err := c.Submit(ctx, SubmitRequest{Engine: "block", Reads: reads})
	if err != nil {
		t.Fatal(err)
	}
	st, err := cancelJob(ctx, c, queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "cancelled" || st.Error == "" || st.Attempts != 0 {
		t.Fatalf("cancelled queued job: %+v, want cancelled, with its error, after no attempt", st)
	}
	if cur, err := c.Status(ctx, blocker.ID); err != nil || cur.State != "running" {
		t.Fatalf("the blocker is %q (%v), want still running", cur.State, err)
	}
	samples, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{
		`pim_service_tenant_pending{tenant="a"}`: 1,
		"pim_service_pending":                    1,
		"pim_service_queued":                     0,
		"pim_service_inflight":                   1,
		"pim_jobs_submitted_total":               2,
		"pim_jobs_cancelled_total":               1,
	} {
		if got := samples[name]; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	// The freed slot admits a third job, and a second cancel is a no-op.
	third, err := c.Submit(ctx, SubmitRequest{Engine: "block", Reads: reads})
	if err != nil {
		t.Fatalf("submission after cancelling a queued job: %v", err)
	}
	if st, err = cancelJob(ctx, c, queued.ID); err != nil || st.State != "cancelled" {
		t.Fatalf("second cancel: %+v, %v", st, err)
	}
	release()
	for _, id := range []string{blocker.ID, third.ID} {
		if st, err := c.Wait(ctx, id, 0); err != nil || st.State != "done" {
			t.Fatalf("job %s: %+v, %v, want done", id, st, err)
		}
	}
	if stats := srv.Close(); stats != (DrainStats{Done: 2, Cancelled: 1}) {
		t.Fatalf("drain stats %v, want 2 done, 1 cancelled", stats)
	}
}

// TestWaitCoversTenantQueue pins what wait_ms means: the time from admission
// to the first attempt, the tenant queue included. With one worker held for
// a known time after a second job was admitted, that job waited at least
// that long, and the latency.queue series saw both jobs.
func TestWaitCoversTenantQueue(t *testing.T) {
	block, release := blockingEngine("block")
	defer release()
	_, ts := startServer(t, Config{Registry: testRegistry(t, block), Workers: 1})
	c := &Client{BaseURL: ts.URL}
	ctx := context.Background()
	reads := fastaWorkload(t, 12, 600, 20)

	first, err := c.Submit(ctx, SubmitRequest{Engine: "block", Reads: reads})
	if err != nil {
		t.Fatal(err)
	}
	second, err := c.Submit(ctx, SubmitRequest{Engine: "software", Reads: reads})
	if err != nil {
		t.Fatal(err)
	}
	const held = 50 * time.Millisecond
	time.Sleep(held)
	release()
	st1, err := c.Wait(ctx, first.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := c.Wait(ctx, second.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st1.State != "done" || st2.State != "done" {
		t.Fatalf("states %q, %q, want done", st1.State, st2.State)
	}
	heldMS := float64(held) / float64(time.Millisecond)
	if st1.RunMS < heldMS {
		t.Errorf("first job run_ms = %.1f, want >= the %.0f ms it was held", st1.RunMS, heldMS)
	}
	if st2.WaitMS < heldMS {
		t.Errorf("second job wait_ms = %.1f, want >= the %.0f ms it sat behind the first", st2.WaitMS, heldMS)
	}
	samples, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := samples["pim_latency_queue_seconds_count"]; got != 2 {
		t.Errorf("pim_latency_queue_seconds_count = %v, want 2 (one per job)", got)
	}
	if got := samples["pim_latency_queue_seconds_sum"]; got < held.Seconds() {
		t.Errorf("pim_latency_queue_seconds_sum = %v s, want >= %v", got, held.Seconds())
	}
}

// TestContigsBeforeDone pins the 409 on fetching results early.
func TestContigsBeforeDone(t *testing.T) {
	block, release := blockingEngine("block")
	defer release()
	_, ts := startServer(t, Config{Registry: testRegistry(t, block), Workers: 1})
	c := &Client{BaseURL: ts.URL}
	ctx := context.Background()
	st, err := c.Submit(ctx, SubmitRequest{Engine: "block", Reads: fastaWorkload(t, 11, 600, 20)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Contigs(ctx, st.ID); !isStatus(err, http.StatusConflict) {
		t.Fatalf("contigs before done: err = %v, want 409", err)
	}
	release()
	if _, err := c.Wait(ctx, st.ID, 0); err != nil {
		t.Fatal(err)
	}
}

// TestHugeCountWorkers is the regression test for a correcting job with a
// worker count near MaxInt, which used to panic in a job goroutine and take
// the daemon down: the job now completes with the contigs of a one-worker
// job, and the daemon keeps answering.
func TestHugeCountWorkers(t *testing.T) {
	_, ts := startServer(t, Config{Workers: 1})
	c := &Client{BaseURL: ts.URL}
	ctx := context.Background()
	reads := fastaWorkload(t, 12, 1500, 200)
	var contigs [][]byte
	for _, workers := range []int{0, math.MaxInt} {
		st, err := c.Submit(ctx, SubmitRequest{Engine: "software", Reads: reads, K: 16, Correct: true, CountWorkers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if st, err = c.Wait(ctx, st.ID, 0); err != nil {
			t.Fatal(err)
		}
		if st.State != "done" {
			t.Fatalf("count_workers=%d: state %q, error %q", workers, st.State, st.Error)
		}
		got, err := c.Contigs(ctx, st.ID)
		if err != nil {
			t.Fatal(err)
		}
		contigs = append(contigs, got)
	}
	if !bytes.Equal(contigs[0], contigs[1]) {
		t.Error("count_workers=MaxInt contigs differ from the one-worker job's")
	}
	if _, err := c.Metrics(ctx); err != nil {
		t.Fatalf("daemon stopped answering: %v", err)
	}
}

// TestHTTPDeterminism pins the service's headline contract: N jobs
// submitted over HTTP produce byte-identical contig FASTA to the same
// specs run directly through jobqueue.Run.
func TestHTTPDeterminism(t *testing.T) {
	const jobs = 4
	payloads := make([]string, jobs)
	for i := range payloads {
		payloads[i] = fastaWorkload(t, 20+uint64(i), 1500, 80)
	}

	// Direct path: the same reads through a bare queue.
	specs := make([]jobqueue.Spec, jobs)
	for i, text := range payloads {
		var reads []*genome.Sequence
		err := genome.ScanRecords(strings.NewReader(text), genome.FormatFASTA, func(r genome.Record) error {
			reads = append(reads, r.Seq)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		specs[i] = jobqueue.Spec{Engine: "software", Source: genome.NewSliceSource(reads),
			Opts: defaultEngineOptions(16)}
	}
	direct := jobqueue.New(nil, jobqueue.WithWorkers(2)).Run(context.Background(), specs)

	_, ts := startServer(t, Config{Workers: 2, MaxPending: jobs * 2})
	c := &Client{BaseURL: ts.URL}
	ctx := context.Background()
	ids := make([]string, jobs)
	for i, text := range payloads {
		st, err := c.Submit(ctx, SubmitRequest{Engine: "software", Reads: text, K: 16})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = st.ID
	}
	for i, id := range ids {
		st, err := c.Wait(ctx, id, 0)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != "done" {
			t.Fatalf("job %d: state %q err %q", i, st.State, st.Error)
		}
		got, err := c.Contigs(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if direct[i].State != jobqueue.StateDone {
			t.Fatalf("direct job %d: %v", i, direct[i].Err)
		}
		want := renderContigs(t, direct[i].Report)
		if !bytes.Equal(got, want) {
			t.Errorf("job %d: HTTP contigs differ from direct jobqueue.Run (%d vs %d bytes)",
				i, len(got), len(want))
		}
	}
}

// defaultEngineOptions mirrors the server's buildSpec defaults.
func defaultEngineOptions(k int) engine.Options {
	opts := engine.Options{}
	opts.K = k
	return opts
}

// renderContigs renders a report's contigs exactly as the contigs endpoint
// (and cmd/assemble's output file) does.
func renderContigs(t *testing.T, rep *engine.Report) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := debruijn.WriteContigsFASTA(&buf, rep.Contigs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFairDispatch pins round-robin fairness: with one worker and two
// tenants' backlogs admitted while the worker is blocked, dispatch
// alternates tenants instead of draining the first backlog first.
func TestFairDispatch(t *testing.T) {
	var mu sync.Mutex
	var order []string
	recorder := testEngine{name: "record", fn: func(_ context.Context, src genome.ReadSource) (*engine.Report, error) {
		codes, err := src.NextCodes()
		if err != nil {
			return nil, err
		}
		mu.Lock()
		// The first base encodes the submitting tenant (A, C, G, T space).
		order = append(order, genome.Base(codes[0]).String())
		mu.Unlock()
		return &engine.Report{Engine: "record", Family: engine.FamilySoftware}, nil
	}}
	gate, release := blockingEngine("block")
	srv, ts := startServer(t, Config{
		Registry:   testRegistry(t, recorder, gate),
		Workers:    1,
		MaxPending: 16,
	})
	ctx := context.Background()
	gateClient := &Client{BaseURL: ts.URL, APIKey: "gate"}
	gateJob, err := gateClient.Submit(ctx, SubmitRequest{Engine: "block", Reads: ">r\nACGTACGT\n"})
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the gate job to occupy the only worker, then build backlogs.
	waitFor(t, 5*time.Second, func() bool {
		st, err := gateClient.Status(ctx, gateJob.ID)
		return err == nil && st.State == "running"
	})
	a := &Client{BaseURL: ts.URL, APIKey: "tenant-a"}
	b := &Client{BaseURL: ts.URL, APIKey: "tenant-b"}
	var ids []string
	for i := 0; i < 3; i++ {
		st, err := a.Submit(ctx, SubmitRequest{Engine: "record", Reads: ">r\nAAAAAAAA\n"})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	for i := 0; i < 3; i++ {
		st, err := b.Submit(ctx, SubmitRequest{Engine: "record", Reads: ">r\nGGGGGGGG\n"})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	release()
	for _, id := range ids[:3] {
		if _, err := a.Wait(ctx, id, 0); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range ids[3:] {
		if _, err := b.Wait(ctx, id, 0); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	got := strings.Join(order, "")
	mu.Unlock()
	if got != "AGAGAG" {
		t.Fatalf("dispatch order %q, want alternating AGAGAG", got)
	}
	waitFor(t, 5*time.Second, func() bool { return srv.Pending() == 0 })
}

// TestDrainGraceful pins the drain state machine: admission stops (503 with
// Retry-After, healthz 503), in-flight work finishes inside the deadline,
// and Drain returns with every job terminal.
func TestDrainGraceful(t *testing.T) {
	srv := New(Config{Workers: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := &Client{BaseURL: ts.URL}
	ctx := context.Background()
	reads := fastaWorkload(t, 30, 1000, 60)

	var ids []string
	for i := 0; i < 3; i++ {
		st, err := c.Submit(ctx, SubmitRequest{Engine: "software", Reads: reads})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	srv.BeginDrain()

	resp := postJob(t, ts, "", SubmitRequest{Engine: "software", Reads: reads})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After header")
	}
	resp.Body.Close()
	if ok, err := c.Healthz(ctx); err != nil || ok {
		t.Fatalf("healthz while draining: ok=%v err=%v, want 503", ok, err)
	}

	dctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	stats := srv.Drain(dctx)
	if stats.Done != 3 || stats.Failed != 0 || stats.Cancelled != 0 {
		t.Fatalf("drain stats %v, want 3 done", stats)
	}
	if got := srv.Pending(); got != 0 {
		t.Fatalf("pending after drain = %d", got)
	}
	// Results stay pollable after drain.
	for _, id := range ids {
		st, err := c.Status(ctx, id)
		if err != nil || st.State != "done" {
			t.Fatalf("job %s after drain: state=%q err=%v", id, st.State, err)
		}
	}
}

// TestDrainDeadlineCancels pins the other half of the state machine: work
// that cannot finish inside the drain deadline is cancelled, and Drain
// still returns with zero pending.
func TestDrainDeadlineCancels(t *testing.T) {
	block, release := blockingEngine("block")
	defer release()
	srv := New(Config{Registry: testRegistry(t, block), Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := &Client{BaseURL: ts.URL}
	ctx := context.Background()

	// One running forever, one queued behind it.
	for i := 0; i < 2; i++ {
		if _, err := c.Submit(ctx, SubmitRequest{Engine: "block", Reads: ">r\nACGTACGT\n"}); err != nil {
			t.Fatal(err)
		}
	}
	dctx, cancel := context.WithTimeout(ctx, 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	stats := srv.Drain(dctx)
	if stats.Cancelled != 2 {
		t.Fatalf("drain stats %v, want 2 cancelled", stats)
	}
	if srv.Pending() != 0 {
		t.Fatalf("pending after deadline drain = %d", srv.Pending())
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("drain took %v", elapsed)
	}
}

// TestMetricsEndpoint pins that /metrics parses strictly and carries both
// the service gauges and the queue counters.
func TestMetricsEndpoint(t *testing.T) {
	srv, ts := startServer(t, Config{Workers: 2, MaxPending: 8})
	c := &Client{BaseURL: ts.URL, APIKey: "metrics-tenant"}
	ctx := context.Background()
	reads := fastaWorkload(t, 40, 800, 40)
	for i := 0; i < 2; i++ {
		st, err := c.Submit(ctx, SubmitRequest{Engine: "software", Reads: reads})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Wait(ctx, st.ID, 0); err != nil {
			t.Fatal(err)
		}
	}
	samples, err := c.Metrics(ctx)
	if err != nil {
		t.Fatalf("metrics do not parse: %v", err)
	}
	if got := samples["pim_jobs_done_total"]; got != 2 {
		t.Errorf("pim_jobs_done_total = %v, want 2", got)
	}
	if got := samples["pim_service_submitted_total"]; got != 2 {
		t.Errorf("pim_service_submitted_total = %v, want 2", got)
	}
	if _, ok := samples["pim_service_pending"]; !ok {
		t.Error("pim_service_pending gauge missing")
	}
	if _, ok := samples[`pim_service_tenant_pending{tenant="metrics-tenant"}`]; !ok {
		t.Error("per-tenant pending gauge missing")
	}
	if _, ok := samples["pim_latency_run_seconds_count"]; !ok {
		t.Error("latency summary missing")
	}
	if hw := samples["pim_service_pending_high_water"]; hw > samples["pim_service_max_pending"] {
		t.Errorf("high water %v exceeds budget %v", hw, samples["pim_service_max_pending"])
	}
	_ = srv
}

// TestBodyTooLarge pins that an over-limit payload is a 413 naming the
// limit, not an opaque 400 decode error.
func TestBodyTooLarge(t *testing.T) {
	_, ts := startServer(t, Config{Workers: 1, MaxBodyBytes: 1024})
	body := `{"engine":"software","reads":"` + strings.Repeat("A", 2048) + `"}`
	resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", resp.StatusCode)
	}
	var doc errorDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil || !strings.Contains(doc.Error, "1024") {
		t.Fatalf("error should name the limit, got %q (err=%v)", doc.Error, err)
	}
}

// TestMetricsHostileTenantKey pins that an API key full of characters the
// exposition format cannot carry (quotes, backslashes, tabs, non-ASCII)
// still yields a /metrics document the strict parser accepts, with the key
// sanitized into the label value.
func TestMetricsHostileTenantKey(t *testing.T) {
	_, ts := startServer(t, Config{Workers: 1})
	hostile := "bad\"key\\\twith\x80stuff"
	c := &Client{BaseURL: ts.URL, APIKey: hostile}
	ctx := context.Background()
	st, err := c.Submit(ctx, SubmitRequest{Engine: "software", Reads: fastaWorkload(t, 60, 600, 20)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx, st.ID, 0); err != nil {
		t.Fatal(err)
	}
	samples, err := c.Metrics(ctx)
	if err != nil {
		t.Fatalf("hostile tenant key broke /metrics: %v", err)
	}
	want := `pim_service_tenant_pending{tenant="` + promLabelValue(hostile) + `"}`
	if _, ok := samples[want]; !ok {
		t.Fatalf("sanitized tenant gauge %s missing", want)
	}
	if strings.ContainsAny(promLabelValue(hostile), `"\`+"\t\n") {
		t.Fatalf("sanitized label %q still carries unsafe characters", promLabelValue(hostile))
	}
}

// TestTenantLabelCardinality pins the /metrics cardinality cap: more
// tenants than MaxTenantLabels collapse into at most that many labels plus
// an aggregated "other" row, and the document still parses.
func TestTenantLabelCardinality(t *testing.T) {
	block, release := blockingEngine("block")
	defer release()
	srv, ts := startServer(t, Config{
		Registry:            testRegistry(t, block),
		Workers:             1,
		MaxPending:          2 * MaxTenantLabels,
		MaxPendingPerTenant: 1,
	})
	ctx := context.Background()
	for i := 0; i < MaxTenantLabels+4; i++ {
		c := &Client{BaseURL: ts.URL, APIKey: fmt.Sprintf("tenant-%02d", i)}
		if _, err := c.Submit(ctx, SubmitRequest{Engine: "block", Reads: ">r\nACGTACGT\n"}); err != nil {
			t.Fatal(err)
		}
	}
	samples, err := (&Client{BaseURL: ts.URL}).Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	labels, total := 0, 0.0
	for k, v := range samples {
		if strings.HasPrefix(k, "pim_service_tenant_pending{") {
			labels++
			total += v
		}
	}
	if labels > MaxTenantLabels {
		t.Fatalf("tenant label cardinality %d exceeds cap %d", labels, MaxTenantLabels)
	}
	if _, ok := samples[`pim_service_tenant_pending{tenant="other"}`]; !ok {
		t.Fatal(`aggregated tenant="other" row missing`)
	}
	if int(total) != MaxTenantLabels+4 {
		t.Fatalf("aggregated pending %v, want %d", total, MaxTenantLabels+4)
	}
	release()
	waitFor(t, 10*time.Second, func() bool { return srv.Pending() == 0 })
}

// TestResultRetention pins the memory bound on terminal records: the
// per-tenant cap evicts the oldest result immediately and the TTL sweeper
// evicts the rest, after which the IDs answer 404 and the tenant record
// itself is gone.
func TestResultRetention(t *testing.T) {
	srv, ts := startServer(t, Config{
		Workers:              1,
		ResultTTL:            200 * time.Millisecond,
		MaxRetainedPerTenant: 1,
	})
	c := &Client{BaseURL: ts.URL, APIKey: "hoarder"}
	ctx := context.Background()
	reads := fastaWorkload(t, 70, 600, 20)

	first, err := c.Submit(ctx, SubmitRequest{Engine: "software", Reads: reads})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx, first.ID, 0); err != nil {
		t.Fatal(err)
	}
	second, err := c.Submit(ctx, SubmitRequest{Engine: "software", Reads: reads})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx, second.ID, 0); err != nil {
		t.Fatal(err)
	}

	// Cap eviction: retaining the second result pushed out the first.
	if _, err := c.Status(ctx, first.ID); !isStatus(err, http.StatusNotFound) {
		t.Fatalf("capped-out job still pollable: err=%v", err)
	}
	// TTL eviction: the sweeper ages out the second within a few periods.
	waitFor(t, 10*time.Second, func() bool {
		_, err := c.Status(ctx, second.ID)
		return isStatus(err, http.StatusNotFound)
	})
	srv.mu.Lock()
	_, alive := srv.tenants["hoarder"]
	jobs := len(srv.jobs)
	srv.mu.Unlock()
	if alive {
		t.Fatal("idle tenant record not dropped after eviction")
	}
	if jobs != 0 {
		t.Fatalf("%d job records linger after eviction", jobs)
	}
}

// TestEvictionFreesReports pins that eviction releases memory, not just the
// ID: after many more jobs than the retention cap, only the retained
// records' reports are still reachable. A finalizer on each report counts
// the collected ones; the dispatch stream used to pin every result for the
// server's lifetime.
func TestEvictionFreesReports(t *testing.T) {
	const jobs, maxRetained = 48, 2
	var collected atomic.Int64
	tracked := testEngine{name: "tracked", fn: func(context.Context, genome.ReadSource) (*engine.Report, error) {
		rep := &engine.Report{Engine: "tracked", Family: engine.FamilySoftware}
		runtime.SetFinalizer(rep, func(*engine.Report) { collected.Add(1) })
		return rep, nil
	}}
	_, ts := startServer(t, Config{
		Workers:              2,
		Registry:             testRegistry(t, tracked),
		MaxRetainedPerTenant: maxRetained,
		ResultTTL:            time.Hour,
	})
	c := &Client{BaseURL: ts.URL, APIKey: "churn"}
	ctx := context.Background()
	reads := fastaWorkload(t, 75, 400, 4)
	for i := 0; i < jobs; i++ {
		st, err := c.Submit(ctx, SubmitRequest{Engine: "tracked", Reads: reads})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Wait(ctx, st.ID, 0); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 10*time.Second, func() bool {
		runtime.GC()
		return jobs-collected.Load() <= maxRetained
	})
}

// TestDrainStatsSurviveEviction pins that Drain's tally counts every job
// ever admitted even when retention already evicted the records.
func TestDrainStatsSurviveEviction(t *testing.T) {
	srv := New(Config{Workers: 1, MaxRetainedPerTenant: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := &Client{BaseURL: ts.URL}
	ctx := context.Background()
	reads := fastaWorkload(t, 80, 600, 20)
	for i := 0; i < 3; i++ {
		st, err := c.Submit(ctx, SubmitRequest{Engine: "software", Reads: reads})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Wait(ctx, st.ID, 0); err != nil {
			t.Fatal(err)
		}
	}
	dctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if stats := srv.Drain(dctx); stats.Done != 3 {
		t.Fatalf("drain stats %v, want 3 done despite eviction", stats)
	}
}

// TestConcurrentSubmitPollDrain drives concurrent submits, polls, metric
// scrapes, and a racing drain — the race-detector surface of the service.
func TestConcurrentSubmitPollDrain(t *testing.T) {
	srv := New(Config{Workers: 4, MaxPending: 32, MaxPendingPerTenant: 8})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	reads := fastaWorkload(t, 50, 600, 30)
	ctx := context.Background()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := &Client{BaseURL: ts.URL, APIKey: fmt.Sprintf("tenant-%d", g)}
			for i := 0; i < 5; i++ {
				st, err := c.Submit(ctx, SubmitRequest{Engine: "software", Reads: reads})
				if err != nil {
					// Quota and drain rejections are legitimate outcomes here.
					if apiErr, ok := err.(*APIError); ok && apiErr.Overloaded() {
						time.Sleep(5 * time.Millisecond)
						continue
					}
					t.Errorf("tenant %d: %v", g, err)
					return
				}
				if _, err := c.Wait(ctx, st.ID, time.Millisecond); err != nil {
					t.Errorf("tenant %d wait: %v", g, err)
					return
				}
				if _, err := c.Metrics(ctx); err != nil {
					t.Errorf("tenant %d metrics: %v", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	dctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	srv.Drain(dctx)
	if srv.Pending() != 0 {
		t.Fatalf("pending after drain = %d", srv.Pending())
	}
}
