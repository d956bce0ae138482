// Jobqueue: the concurrent assembly job server in miniature — a mixed
// batch of (reads, engine) jobs dispatched onto the bounded worker pool,
// with per-job timeouts, deterministic slot-ordered results, and the
// queue's counters/latency instrumentation. The per-job summaries printed
// here are bit-identical for any worker count.
package main

import (
	"context"
	"fmt"
	"time"

	"pimassembler/internal/assembly"
	"pimassembler/internal/debruijn"
	"pimassembler/internal/engine"
	"pimassembler/internal/genome"
	"pimassembler/internal/jobqueue"
	"pimassembler/internal/metrics"
	"pimassembler/internal/stats"
)

func main() {
	// Three tenants' read sets from three synthetic genomes.
	workload := func(seed uint64, n int) []*genome.Sequence {
		rng := stats.NewRNG(seed)
		ref := genome.GenerateGenome(3_000, rng)
		return genome.NewReadSampler(ref, 101, 0, rng).Sample(n)
	}
	a, b, c := workload(101, 200), workload(102, 150), workload(103, 180)
	opts := engine.Options{Options: assembly.Options{K: 16}, Subarrays: 16}
	counts := assembly.PaperOpCounts(genome.PaperChr14(), 16)

	specs := []jobqueue.Spec{
		{Name: "tenant-a", Engine: "software", Source: genome.NewSliceSource(a), Opts: opts},
		{Name: "tenant-b", Engine: "pim", Source: genome.NewSliceSource(b), Opts: opts},
		{Name: "tenant-c", Engine: "pim-assembler", Source: genome.NewSliceSource(c), Opts: opts},
		{Name: "chr14-estimate", Engine: "drisa-3t1c", Opts: engine.Options{Counts: &counts}},
		{Name: "tenant-a-k22", Engine: "software", Source: genome.NewSliceSource(a),
			Opts:    engine.Options{Options: assembly.Options{K: 22}},
			Timeout: 30 * time.Second,
			Retry:   jobqueue.RetryPolicy{MaxAttempts: 3, Backoff: 50 * time.Millisecond}},
	}

	counters := metrics.NewCounters()
	q := jobqueue.New(nil, jobqueue.WithCounters(counters))
	fmt.Printf("dispatching %d jobs on %d workers\n\n", len(specs), q.Workers())
	results := q.Run(context.Background(), specs)

	for _, r := range results {
		if r.State != jobqueue.StateDone {
			fmt.Printf("%-14s %-13s %s after %d attempts: %v\n",
				r.Spec.Name, r.Spec.Engine, r.State, r.Attempts, r.Err)
			continue
		}
		rep := r.Report
		fmt.Printf("%-14s %-13s done: ", r.Spec.Name, r.Spec.Engine)
		switch {
		case rep.Functional != nil:
			fmt.Printf("%d contigs, %d commands, makespan %.2f ms\n",
				len(rep.Contigs), rep.Functional.Commands, rep.Functional.Makespan.MakespanNS/1e6)
		case rep.Cost != nil && rep.Contigs == nil:
			fmt.Printf("modeled %s total %.1f s, %.1f W\n",
				rep.Cost.Platform, rep.Cost.TotalS(), rep.Cost.PowerW)
		case rep.Cost != nil:
			fmt.Printf("%d contigs, modeled total %.3g s on %s\n",
				len(rep.Contigs), rep.Cost.TotalS(), rep.Cost.Platform)
		default:
			fmt.Printf("%d contigs, N50=%d\n", len(rep.Contigs), debruijn.N50(rep.Contigs))
		}
	}

	fmt.Printf("\nqueue statistics:\n%s", counters)
}
