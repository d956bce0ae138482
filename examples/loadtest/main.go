// Loadtest: closed-loop multi-tenant load against the assembled service —
// the admission-budget proof for EXPERIMENTS.md E20. Several tenants each
// drive a tight submit→poll→contigs loop at an offered load well above
// capacity while a sampler scrapes /metrics; the run passes only if the
// pending gauge NEVER exceeds the admission budget (excess arrivals are
// rejected 429 with Retry-After, not queued), every accepted job finishes,
// and the daemon drains cleanly at the end. Prints jobs/s and p50/p99
// turnaround for the accepted work. Exit code 1 on any violation.
package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pimassembler/internal/genome"
	"pimassembler/internal/service"
	"pimassembler/internal/stats"
)

const (
	tenants    = 4
	perTenant  = 5 // closed-loop clients per tenant — above perBudget, so 429s are guaranteed under load
	duration   = 3 * time.Second
	maxPending = 8
	perBudget  = 3
)

func main() {
	if err := loadtest(); err != nil {
		fmt.Fprintln(os.Stderr, "loadtest: FAIL:", err)
		os.Exit(1)
	}
}

func loadtest() error {
	// In-process daemon: same Server + Handler the binary serves.
	srv := service.New(service.Config{
		Workers:             2,
		MaxPending:          maxPending,
		MaxPendingPerTenant: perBudget,
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	fmt.Printf("loadtest: daemon at %s (workers=2, budget=%d global / %d per tenant)\n",
		ts.URL, maxPending, perBudget)

	reads := workload(4242, 1200, 60)

	var (
		accepted, rejected, completed atomic.Int64
		mu                            sync.Mutex
		latencies                     []time.Duration
	)
	ctx, cancel := context.WithTimeout(context.Background(), duration)
	defer cancel()

	// The budget monitor: scrape the pending gauge as fast as the server
	// answers; the highest sample must not exceed the budget.
	var maxSeen atomic.Int64
	monitorDone := make(chan struct{})
	go func() {
		defer close(monitorDone)
		c := &service.Client{BaseURL: ts.URL, HTTPClient: &http.Client{Timeout: 5 * time.Second}}
		for ctx.Err() == nil {
			samples, err := c.Metrics(context.Background())
			if err != nil {
				continue
			}
			pending := int64(samples["pim_service_pending"])
			if pending > maxSeen.Load() {
				maxSeen.Store(pending)
			}
			time.Sleep(time.Millisecond)
		}
	}()

	// Closed-loop clients: each submits, polls to completion, fetches
	// contigs, repeats; overload shows up as 429s, never as queue growth.
	var wg sync.WaitGroup
	for t := 0; t < tenants; t++ {
		for k := 0; k < perTenant; k++ {
			wg.Add(1)
			go func(tenant int) {
				defer wg.Done()
				c := &service.Client{
					BaseURL: ts.URL,
					APIKey:  fmt.Sprintf("tenant-%d", tenant),
				}
				for ctx.Err() == nil {
					start := time.Now()
					st, err := c.Submit(context.Background(), service.SubmitRequest{
						Engine: "software", Reads: reads, K: 16,
					})
					if err != nil {
						if apiErr, ok := err.(*service.APIError); ok && apiErr.Overloaded() {
							rejected.Add(1)
							time.Sleep(2 * time.Millisecond)
							continue
						}
						fmt.Fprintln(os.Stderr, "loadtest: submit:", err)
						return
					}
					accepted.Add(1)
					final, err := c.Wait(context.Background(), st.ID, time.Millisecond)
					if err != nil || final.State != "done" {
						fmt.Fprintf(os.Stderr, "loadtest: job %s: state=%q err=%v\n", st.ID, final.State, err)
						return
					}
					if _, err := c.Contigs(context.Background(), st.ID); err != nil {
						fmt.Fprintln(os.Stderr, "loadtest: contigs:", err)
						return
					}
					completed.Add(1)
					mu.Lock()
					latencies = append(latencies, time.Since(start))
					mu.Unlock()
				}
			}(t)
		}
	}
	wg.Wait()
	<-monitorDone

	// Drain and verify the clean stop.
	dctx, dcancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer dcancel()
	drained := srv.Drain(dctx)

	elapsed := duration
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	fmt.Printf("loadtest: %v offered load from %d clients across %d tenants\n",
		elapsed, tenants*perTenant, tenants)
	fmt.Printf("  accepted %d, completed %d, rejected %d (429/503 backpressure)\n",
		accepted.Load(), completed.Load(), rejected.Load())
	fmt.Printf("  throughput %.1f jobs/s, turnaround p50 %v p99 %v\n",
		float64(completed.Load())/elapsed.Seconds(), pct(latencies, 50), pct(latencies, 99))
	fmt.Printf("  pending high-water: observed %d, budget %d\n", maxSeen.Load(), maxPending)
	fmt.Printf("  drain: %s\n", drained)

	if hw := maxSeen.Load(); hw > maxPending {
		return fmt.Errorf("pending gauge %d exceeded the admission budget %d", hw, maxPending)
	}
	if rejected.Load() == 0 {
		return fmt.Errorf("overload produced zero 429s — offered load never hit the budget, test proves nothing")
	}
	if srv.Pending() != 0 {
		return fmt.Errorf("%d jobs still pending after drain", srv.Pending())
	}
	fmt.Println("loadtest: OK — backpressure held, no unbounded queueing, clean drain")
	return nil
}

// workload renders a deterministic FASTA payload.
func workload(seed uint64, genomeLen, n int) string {
	rng := stats.NewRNG(seed)
	ref := genome.GenerateGenome(genomeLen, rng)
	seqs := genome.NewReadSampler(ref, 101, 0, rng).Sample(n)
	records := make([]genome.Record, len(seqs))
	for i, s := range seqs {
		records[i] = genome.Record{Name: fmt.Sprintf("r%d", i), Seq: s}
	}
	var sb strings.Builder
	if err := genome.WriteFASTA(&sb, records); err != nil {
		panic(err)
	}
	return sb.String()
}

func pct(sorted []time.Duration, p int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := (len(sorted) - 1) * p / 100
	return sorted[idx]
}
