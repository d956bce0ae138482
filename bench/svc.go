package bench

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"time"

	"pimassembler/internal/engine"
	"pimassembler/internal/genome"
	"pimassembler/internal/jobqueue"
	"pimassembler/internal/service"
)

const (
	// svcClients closed-loop clients, one tenant key each: each sends its
	// next job only after fetching the previous job's contigs. Two, because
	// the box has two cores and the server two workers.
	svcClients = 2
	// svcSegments windows make one run, each on a freshly started server.
	// jobqueue.Stream keeps every Result for the life of the server and each
	// Report pins its k-mer table and graph (≈ 1.4 MB per job). On one server
	// for the whole 10 s the heap passes 4 GB, throughput falls to a third,
	// peak RSS is proportional to the jobs done, and on this VM the first
	// touch of guest memory makes both depend on what ran before: six
	// back-to-back runs read 43 060 → 64 620 reads/s and 2 950 → 4 260 MB,
	// wider than any bound the manifest may set. Five 2 s windows bound the
	// footprint, and the median of five throughputs forgives one disturbed
	// window. What one server does over the whole ten seconds is measured
	// apart, in the traced run (longLived), where no bound hangs on it.
	svcSegments = 5
	// svcWarmup runs before each window so connections are open and the
	// server's heap has reached a working size.
	svcWarmup = 300 * time.Millisecond
	// svcPoll is the status-poll interval of Client.Wait.
	svcPoll = time.Millisecond
)

// svcInst is svc_small: an in-process service behind a real loopback
// listener, driven over HTTP through the typed client.
type svcInst struct {
	e      *env
	in     *Input
	srv    *service.Server
	ts     *httptest.Server
	want   []byte  // contig FASTA of a direct engine run, filled by expect
	recall float64 // and its k-mer recall against the reference
}

func setupSvc(e *env) (instance, error) {
	in, err := GenInput(e.seed, e.sz.genome, e.sz.reads, 0, genome.FormatFASTA)
	if err != nil {
		return nil, err
	}
	x := &svcInst{e: e, in: in}
	return x, x.start()
}

// start brings a server up; it returns once the server answers over the
// loopback connection.
func (x *svcInst) start() error {
	x.srv = service.New(service.Config{Workers: svcClients})
	x.ts = httptest.NewServer(x.srv.Handler())
	ok, err := x.client("").Healthz(x.e.ctx)
	if err == nil && !ok {
		err = errors.New("service not healthy after start")
	}
	if err != nil {
		x.close()
	}
	return err
}

// close drains the server (every job is terminal by now) and the listener.
func (x *svcInst) close() error {
	if x.srv == nil {
		return nil // already closed: Drain may be called once
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	stats := x.srv.Drain(ctx)
	x.ts.Close()
	x.srv = nil
	if stats.Failed > 0 || stats.Cancelled > 0 {
		fmt.Fprintln(os.Stderr, "svc_small: drain:", stats)
	}
	return nil
}

func (x *svcInst) client(tenant string) *service.Client {
	return &service.Client{BaseURL: x.ts.URL, APIKey: tenant, HTTPClient: x.ts.Client()}
}

// expect computes, once and outside every measured window, the bytes every
// job must return: the same reads through the engine directly.
func (x *svcInst) expect() error {
	if x.want != nil {
		return nil
	}
	sw, err := engine.Lookup("software")
	if err != nil {
		return err
	}
	rep, err := sw.Assemble(x.e.ctx, x.in.Source(), x.jobOpts())
	if err != nil {
		return err
	}
	x.recall, _ = kmerRecall(rep.Contigs, x.in.Ref, x.jobOpts().K)
	x.want, err = contigFASTA(rep.Contigs)
	return err
}

// jobOpts is what the service builds from a {engine, reads, k=16} request.
func (x *svcInst) jobOpts() engine.Options {
	opts := engine.DefaultOptions()
	opts.K = 16
	opts.MinOverlap = 12
	return opts
}

// job is one client-side turnaround, with the three calls timed apart.
type job struct {
	submit, wait, fetch, total time.Duration
	rejected                   int // 429/503 answers before admission
	end                        time.Time
	status                     service.JobStatus
	ok                         bool
}

// runJob submits one job, waits for it and fetches its contigs. With a
// tracer, each call is a span on the client's track under the job's span.
func (x *svcInst) runJob(ctx context.Context, c *service.Client, tr *Tracer, client, parent int) (job, error) {
	var j job
	span := func(name string, fn func()) time.Duration {
		if tr == nil {
			t0 := time.Now()
			fn()
			return time.Since(t0)
		}
		return tr.Do(name, "service", client, parent, fn)
	}
	t0 := time.Now()
	req := service.SubmitRequest{Engine: "software", Reads: string(x.in.Data), K: 16}
	var st service.JobStatus
	var err error
	j.submit = span("service.submit", func() {
		for {
			st, err = c.Submit(ctx, req)
			var apiErr *service.APIError
			if err == nil || !errors.As(err, &apiErr) || !apiErr.Overloaded() {
				return
			}
			j.rejected++
			time.Sleep(time.Millisecond)
		}
	})
	if err != nil {
		return j, err
	}
	j.wait = span("service.wait", func() { j.status, err = c.Wait(ctx, st.ID, svcPoll) })
	if err != nil {
		return j, err
	}
	if j.status.State != "done" {
		j.total = time.Since(t0)
		return j, nil
	}
	var out []byte
	j.fetch = span("service.fetch", func() { out, err = c.Contigs(ctx, st.ID) })
	j.total = time.Since(t0)
	j.ok = err == nil && bytes.Equal(out, x.want)
	return j, err
}

// window is one measured closed-loop window on one server.
type window struct {
	jobs  []job     // started and finished inside the window
	begin time.Time // when the window opened, after the warm-up
	dur   time.Duration
	alloc uint64  // bytes the process allocated inside the window
	polls float64 // status polls per job, from the server's request counter
}

// loop runs the closed loop on the current server for svcWarmup + d.
func (x *svcInst) loop(d time.Duration, tr *Tracer) (w window, err error) {
	begin := time.Now().Add(svcWarmup)
	end := begin.Add(d)
	ctx, cancel := context.WithDeadline(x.e.ctx, end.Add(30*time.Second))
	defer cancel()

	var mu sync.Mutex
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // samples the allocation counter when the window opens
		defer wg.Done()
		time.Sleep(time.Until(begin))
		w.alloc = totalAlloc()
	}()
	for c := 0; c < svcClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := x.client(fmt.Sprintf("tenant-%d", c))
			for time.Now().Before(end) {
				started := time.Now()
				parent := -1
				var t *Tracer
				if tr != nil && !started.Before(begin) {
					t = tr
					parent = tr.Begin("job", "service", c, -1)
				}
				j, jerr := x.runJob(ctx, cl, t, c, parent)
				if t != nil {
					t.End(parent)
				}
				mu.Lock()
				if jerr != nil && err == nil {
					err = jerr
				}
				if j.end = time.Now(); !started.Before(begin) && !j.end.After(end) {
					w.jobs = append(w.jobs, j)
				}
				mu.Unlock()
				if jerr != nil {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	w.begin, w.dur = begin, d
	w.alloc = totalAlloc() - w.alloc
	// Every job costs one accepted submit and one fetch, rejections are
	// extra submits, set-up sent one healthz; the rest are status polls.
	snap := x.srv.Counters().Snapshot()
	if n := snap["service.submitted"]; n > 0 {
		w.polls = float64(snap["service.http.requests"]-1-2*n-snap["service.rejected.quota"]) / float64(n)
	}
	return w, err
}

// windows splits seconds over svcSegments windows, restarting the server
// before every window but the first (set-up just started that one).
func (x *svcInst) windows(seconds float64, tr *Tracer) ([]window, error) {
	if err := x.expect(); err != nil {
		return nil, err
	}
	ws := make([]window, svcSegments)
	for i := range ws {
		if i > 0 {
			x.close()
			if err := x.start(); err != nil {
				return nil, err
			}
		}
		x.e.ref.tick() // between windows, while no client runs
		var err error
		if ws[i], err = x.loop(time.Duration(seconds/svcSegments*float64(time.Second)), tr); err != nil {
			return nil, err
		}
	}
	x.e.ref.tick()
	return ws, nil
}

func (x *svcInst) measure(seconds float64) (measured, error) {
	ws, err := x.windows(seconds, nil)
	if err != nil {
		return measured{}, err
	}
	var m measured
	var rates []float64
	for _, w := range ws {
		done := 0
		for _, j := range w.jobs {
			if !j.ok {
				m.failed++
				continue
			}
			done++
			m.opMS = append(m.opMS, ms(j.total))
		}
		rates = append(rates, float64(done*x.in.Reads)/w.dur.Seconds())
		m.wall += w.dur
		m.alloc += w.alloc
	}
	m.readsPerS = median(rates)
	return m, nil
}

// verify: every job's bytes were compared inside the loop (failures are in
// measured.failed already); here only the reference's own quality is left.
func (x *svcInst) verify() (int, float64, error) { return 0, x.recall, nil }

func (x *svcInst) replay(tr *Tracer, seconds float64) (map[string]float64, int, int, error) {
	ws, err := x.windows(seconds, tr)
	if err != nil {
		return nil, 0, 0, err
	}
	var total, submit, wait, fetch, queued, run, overhead, rates, polls []float64
	attempted, failed, rejected := 0, 0, 0
	for _, w := range ws {
		done := 0
		for _, j := range w.jobs {
			attempted++
			rejected += j.rejected
			if !j.ok {
				failed++
				continue
			}
			done++
			total = append(total, ms(j.total))
			submit = append(submit, ms(j.submit))
			wait = append(wait, ms(j.wait))
			fetch = append(fetch, ms(j.fetch))
			queued = append(queued, j.status.WaitMS)
			run = append(run, j.status.RunMS)
			overhead = append(overhead, ms(j.total)-j.status.RunMS)
		}
		rates = append(rates, float64(done)/w.dur.Seconds())
		polls = append(polls, w.polls)
	}
	if len(total) == 0 {
		return nil, 0, 0, fmt.Errorf("no job completed (%d failed)", failed)
	}
	layer := map[string]float64{
		"service.jobs_per_s":        median(rates),
		"service.job_p95_ms":        quantile(total, 0.95),
		"service.submit_ms_p50":     median(submit),
		"service.wait_ms_p50":       median(wait),
		"service.fetch_ms_p50":      median(fetch),
		"service.rejected_429":      float64(rejected),
		"service.queue_wait_ms_p50": median(queued),
		"service.run_ms_p50":        median(run),
		"service.overhead_ms_p50":   median(overhead),
		"service.polls_per_job":     median(polls),
	}
	if err := x.queueOnly(tr, layer); err != nil {
		return nil, 0, 0, err
	}
	n, bad, err := x.longLived(seconds, layer)
	return layer, attempted + n, failed + bad, err
}

// longLived is the measurement the windows avoid: one server for the whole
// of seconds, as a deployed daemon runs. It reports the job rate in the first
// and in the last fifth of that time, so what the results the server retains
// cost over ten seconds — and a later fix to that — shows as two numbers,
// without the end-to-end metrics inheriting its run-to-run spread.
func (x *svcInst) longLived(seconds float64, layer map[string]float64) (attempted, failed int, err error) {
	x.close()
	runtime.GC() // the earlier passes' garbage is not this server's to collect
	if err := x.start(); err != nil {
		return 0, 0, err
	}
	d := time.Duration(seconds * float64(time.Second))
	w, err := x.loop(d, nil)
	if err != nil {
		return 0, 0, err
	}
	fifth := d / svcSegments
	first, last := 0, 0
	for _, j := range w.jobs {
		switch {
		case !j.ok:
			failed++
		case j.end.Before(w.begin.Add(fifth)):
			first++
		case !j.end.Before(w.begin.Add(d - fifth)):
			last++
		}
	}
	layer["service.longlived_first_jobs_per_s"] = float64(first) / fifth.Seconds()
	layer["service.longlived_last_jobs_per_s"] = float64(last) / fifth.Seconds()
	return len(w.jobs), failed, nil
}

// queueOnly pushes the same job specs straight through jobqueue.Run, with
// the service's two workers and with one: the ceiling the HTTP layer can
// only subtract from, and the verdict on the queue's fan-out.
func (x *svcInst) queueOnly(tr *Tracer, layer map[string]float64) error {
	const jobs = 200
	for _, q := range []struct {
		name    string
		workers int
	}{{"jobqueue.run", svcClients}, {"jobqueue.serial", 1}} {
		specs := make([]jobqueue.Spec, jobs)
		for i := range specs {
			specs[i] = jobqueue.Spec{Engine: "software", Source: x.in.Source(), Opts: x.jobOpts()}
		}
		var results []jobqueue.Result
		d := tr.Do(q.name, "jobqueue", -1, -1, func() {
			results = jobqueue.New(nil, jobqueue.WithWorkers(q.workers)).Run(x.e.ctx, specs)
		})
		for _, r := range results {
			if r.State != jobqueue.StateDone {
				return fmt.Errorf("%s: job %d ended %s: %v", q.name, r.Slot, r.State, r.Err)
			}
		}
		layer[q.name+"_jobs_per_s"] = jobs / d.Seconds()
	}
	return nil
}
