// Package shard scales one assembly workload across several engines: the
// read set is split into deterministic contiguous shards, every shard is
// run through the job queue's Do onto an engine resolved from the
// registry — the same engine N ways, or a heterogeneous engine list assigned
// round-robin — and the per-shard engine.Reports are merged into one unified
// report. This is the batch-partitioned processing shape the near-memory
// assembly literature (NMP-PaK; the PIM-for-genomics surveys) identifies as
// the path to paper-scale read sets; see DESIGN.md §12.
//
// Merge algebra:
//
//   - Contigs: concatenated in shard order, then re-deduplicated by running
//     the reference assembly pipeline over them as reads. A shard's contigs
//     spell exactly the k-mers of the shard's reads, so the merged de Bruijn
//     edge set is the union of the per-shard k-mer sets — identical to the
//     unsharded graph. Contig emission depends only on graph structure,
//     so for count-independent options (MinCount ≤ 1, no Simplify/Correct)
//     the merged contig sequences are byte-identical to an unsharded run,
//     for any shard count. Count-dependent options apply per shard and are
//     approximate; merged MeanCoverage counts shard multiplicity, not read
//     coverage.
//   - Operation counts: ReadCount and TotalKmers are summed over shards
//     (every read lands in exactly one shard, so the sums are invariant in
//     the shard count); DistinctKmers/Nodes/Edges are measured exactly on
//     the merged graph; AvgProbes and ReadLen are shard-weighted means.
//   - Latency: shards run in parallel, so the merged makespan is the max
//     over shards (functional schedules and analytical stage models alike).
//   - Energy: summed over shards — every shard's commands execute somewhere.
//
// Determinism: Split depends only on (len(reads), Shards); dispatch follows
// internal/parallel's slot-ordered contract; the merge pass is the
// deterministic reference pipeline. Merged output is bit-identical for any
// worker count.
package shard

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"pimassembler/internal/assembly"
	"pimassembler/internal/engine"
	"pimassembler/internal/genome"
	"pimassembler/internal/jobqueue"
	"pimassembler/internal/metrics"
	"pimassembler/internal/parallel"
)

// Plan describes one sharded run.
type Plan struct {
	// Shards is the shard count; values < 1 mean one shard, and counts
	// beyond the read count are clamped so no shard is empty.
	Shards int
	// Engines names the execution paths, assigned to shards round-robin
	// (shard i runs on Engines[i % len(Engines)]). Empty means every shard
	// runs the software reference engine.
	Engines []string
	// Opts configures each shard's engine run. Count-dependent pipeline
	// options (MinCount > 1, Simplify, Correct) apply per shard, not
	// globally — see the package comment.
	Opts engine.Options
	// Workers bounds the dispatch pool (0 = parallel.Workers()).
	Workers int
	// Registry resolves engine names (nil = engine.Default()).
	Registry *engine.Registry
	// Timeout and Retry carry the job queue's per-shard attempt controls.
	Timeout time.Duration
	Retry   jobqueue.RetryPolicy
	// MaxResidentReads caps how many reads the spill-backed path
	// (AssembleSpill) admits into flight at once across all shards
	// (<= 0 means DefaultMaxResidentReads). The in-memory Assemble, which
	// already holds every read, reserves nothing against it.
	MaxResidentReads int
	// Counters optionally collects the job queue's jobs.*/latency.*
	// instrumentation for the dispatch (nil = uninstrumented).
	Counters *metrics.Counters
}

// engines returns the effective engine list.
func (p Plan) engines() []string {
	if len(p.Engines) == 0 {
		return []string{"software"}
	}
	return p.Engines
}

// registry returns the effective registry.
func (p Plan) registry() *engine.Registry {
	if p.Registry != nil {
		return p.Registry
	}
	return engine.Default()
}

// Split partitions reads into n deterministic contiguous shards whose sizes
// differ by at most one. n is clamped to [1, len(reads)], so every returned
// shard is non-empty; the shards alias the input slice (no copying).
//
// Contiguous-assignment contract: shard i is exactly the subslice
// reads[i*len(reads)/n : (i+1)*len(reads)/n] — each shard slice is
// allocated at its final size (never grown by append), concatenating the
// shards in index order reproduces the input order, and the assignment
// depends only on (len(reads), n), never on read contents. The streaming
// spill partitioner routes the same multiset of reads with a different
// (round-robin) shape; the merge algebra above is what makes the merged
// output invariant to that difference.
func Split(reads []*genome.Sequence, n int) [][]*genome.Sequence {
	if len(reads) == 0 {
		return nil
	}
	if n < 1 {
		n = 1
	}
	if n > len(reads) {
		n = len(reads)
	}
	out := make([][]*genome.Sequence, n)
	for i := 0; i < n; i++ {
		lo, hi := i*len(reads)/n, (i+1)*len(reads)/n
		out[i] = reads[lo:hi]
	}
	return out
}

// Result is one completed sharded run.
type Result struct {
	// Report is the unified merged report. With a single shard it is that
	// shard's report verbatim — merging one shard is the identity, which
	// keeps `-shards 1` byte-identical to an unsharded run.
	Report *engine.Report
	// PerShard holds each shard's report in shard order.
	PerShard []*engine.Report
	// Engines names the engine each shard actually ran on, shard order.
	Engines []string

	// Functional aggregates over the shards that ran the PIM functional
	// engine (zero when none did): command slots and array energy summed,
	// makespan the max over shards.
	Commands   int64
	EnergyPJ   float64
	MakespanNS float64

	// Analytical aggregates over the shards priced by a platform model
	// (zero when none were): modeled stage time as the max over shards,
	// modeled energy summed.
	CostTotalS  float64
	CostEnergyJ float64
}

// job is one shard's dispatch unit: the shard index that error messages and
// job names carry, how many reads running it decodes into this process (the
// resident-read gate's reservation; 0 when the reads are in memory already),
// and where the reads come from.
type job struct {
	shard int
	reads int
	src   genome.ReadSource
}

// Assemble runs one sharded multi-engine assembly over an in-memory read
// set: split, dispatch through the job queue, merge. Any shard
// failure fails the run with the shard index and engine named.
func Assemble(ctx context.Context, reads []*genome.Sequence, plan Plan) (*Result, error) {
	if len(reads) == 0 {
		return nil, fmt.Errorf("shard: no reads")
	}
	shards := Split(reads, plan.Shards)
	jobs := make([]job, len(shards))
	for i, sh := range shards {
		jobs[i] = job{shard: i, src: genome.NewSliceSource(sh)}
	}
	return run(ctx, jobs, plan)
}

// run is the one shard dispatch loop, whatever built the jobs and whatever
// executes them: validate the engine names, then fan the jobs out over
// parallel.ForEachWorkers (engines assigned round-robin over the job list).
// Each task waits until its reads fit under the resident-read gate, runs
// its job through the job queue's Do, closes its source and returns its
// reservation — deferred, so a panicking engine reaches the caller without
// leaving a sibling blocked in the gate — and on a terminal failure cancels
// every other shard. Then merge. Attempts, per-attempt timeouts, backoff and
// the transient/terminal split are the job queue's; the engines in
// plan.Registry decide where a shard runs.
func run(ctx context.Context, jobs []job, plan Plan) (*Result, error) {
	engines := plan.engines()
	reg := plan.registry()
	for _, name := range engines {
		if _, err := reg.Lookup(name); err != nil {
			return nil, err
		}
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	gate := newReadGate(plan.maxResidentReads())
	defer context.AfterFunc(ctx, gate.wake)()

	q := jobqueue.New(reg, jobqueue.WithWorkers(plan.Workers), jobqueue.WithCounters(plan.Counters))
	names := make([]string, len(jobs))
	for i := range jobs {
		names[i] = engines[i%len(engines)]
	}
	results := make([]jobqueue.Result, len(jobs))
	admitted := time.Now()
	parallel.ForEachWorkers(q.Workers(), len(jobs), func(i int) {
		j := jobs[i]
		if err := gate.acquire(ctx, j.reads); err != nil {
			// Cancelled before it was admitted: the job never ran.
			results[i] = jobqueue.Result{State: jobqueue.StateCancelled, Err: err}
			return
		}
		defer func() {
			// Sources must be closed before the caller removes a spill
			// directory.
			if c, ok := j.src.(io.Closer); ok {
				c.Close()
			}
			gate.release(j.reads)
		}()
		results[i] = q.Do(ctx, jobqueue.Spec{
			Name:    fmt.Sprintf("shard-%d", j.shard),
			Engine:  names[i],
			Source:  j.src,
			Opts:    plan.Opts,
			Timeout: plan.Timeout,
			Retry:   plan.Retry,
		}, admitted)
		if results[i].State == jobqueue.StateFailed {
			cancel()
		}
	})

	// The shard that failed is the one to name, not a sibling its failure
	// cancelled; with no failure, the first cancelled shard stands for the
	// caller's own cancellation.
	bad := -1
	for i, r := range results {
		if r.State == jobqueue.StateFailed {
			bad = i
			break
		}
		if r.Err != nil && bad < 0 {
			bad = i
		}
	}
	if bad >= 0 {
		return nil, fmt.Errorf("shard %d (engine %s): %w", jobs[bad].shard, names[bad], results[bad].Err)
	}

	res := &Result{Engines: names, PerShard: make([]*engine.Report, len(jobs))}
	for i, r := range results {
		res.PerShard[i] = r.Report
	}
	return res.finish(plan.Opts)
}

// Merge builds the unified Result from per-shard reports that were produced
// elsewhere — the exported merge path the multi-process coordinator
// (internal/distshard) feeds with reports reconstructed from worker wire
// frames. perShard and engines are in shard order and must be the same
// length; the merge algebra is exactly the in-process one (union-graph
// contig re-dedup, summed workload counters, makespan max), so for
// count-independent options the merged contigs are byte-identical whether
// the shards ran in this process or across a worker fleet.
func Merge(perShard []*engine.Report, engines []string, opts engine.Options) (*Result, error) {
	if len(perShard) == 0 {
		return nil, fmt.Errorf("shard: no shard reports to merge")
	}
	if len(engines) != len(perShard) {
		return nil, fmt.Errorf("shard: %d engine names for %d shard reports", len(engines), len(perShard))
	}
	for i, rep := range perShard {
		if rep == nil {
			return nil, fmt.Errorf("shard: missing report for shard %d (engine %s)", i, engines[i])
		}
	}
	res := &Result{Engines: engines, PerShard: perShard}
	return res.finish(opts)
}

// finish aggregates the family accounting and merges the per-shard reports
// into res.Report — the tail shared by every entry point, in-process or
// distributed.
func (r *Result) finish(opts engine.Options) (*Result, error) {
	r.aggregate()

	if len(r.PerShard) == 1 {
		r.Report = r.PerShard[0]
		return r, nil
	}
	rep, err := merge(r, opts)
	if err != nil {
		return nil, err
	}
	r.Report = rep
	return r, nil
}

// aggregate folds the per-shard family-specific accounting into the Result.
func (r *Result) aggregate() {
	for _, rep := range r.PerShard {
		if f := rep.Functional; f != nil {
			r.Commands += f.Commands
			r.EnergyPJ += f.EnergyPJ
			if f.Makespan.MakespanNS > r.MakespanNS {
				r.MakespanNS = f.Makespan.MakespanNS
			}
		}
		if c := rep.Cost; c != nil {
			if t := c.TotalS(); t > r.CostTotalS {
				r.CostTotalS = t
			}
			r.CostEnergyJ += c.EnergyJ()
		}
	}
}

// merge builds the unified report from ≥ 2 shard reports: concatenate the
// contigs in shard order, re-deduplicate them through the reference
// assembly pipeline, and merge the operation counts.
func merge(res *Result, opts engine.Options) (*engine.Report, error) {
	var contigReads []*genome.Sequence
	for _, rep := range res.PerShard {
		for _, c := range rep.Contigs {
			contigReads = append(contigReads, c.Seq)
		}
	}
	if len(contigReads) == 0 {
		return nil, fmt.Errorf("shard: no contigs to merge (did every shard run a contig-producing engine?)")
	}
	// Only the count-independent options carry into the merge pass: the
	// contig multiplicities here count shards, not reads, so MinCount /
	// Simplify / Correct must not re-filter. CountWorkers carries through —
	// the re-dedup pass counts the concatenated contigs' k-mers, the
	// heaviest part of the merge, and parallel counting is contig-identical.
	mergeOpts := assembly.Options{
		K: opts.K, Scaffold: opts.Scaffold, MinOverlap: opts.MinOverlap,
		CountWorkers: opts.CountWorkers,
	}
	mres, err := assembly.Assemble(contigReads, mergeOpts)
	if err != nil {
		return nil, fmt.Errorf("shard: merge: %w", err)
	}

	// The merged contigs come out of the reference pipeline's merge pass,
	// whatever families the shards ran.
	rep := engine.NewReport(label(res.Engines), engine.FamilySoftware, mres, opts)
	rep.Counts = mergedCounts(res.PerShard, rep.Counts)
	return rep, nil
}

// label names the merged report's engine, e.g. "shard(software x4)" or
// "shard(software+pim x3)".
func label(names []string) string {
	var uniq []string
	seen := make(map[string]bool, len(names))
	for _, n := range names {
		if !seen[n] {
			seen[n] = true
			uniq = append(uniq, n)
		}
	}
	return fmt.Sprintf("shard(%s x%d)", strings.Join(uniq, "+"), len(names))
}

// mergedCounts sums the per-shard workload totals (each read is in exactly
// one shard) and takes the global graph structure from the merge pass,
// which measured it exactly. Returns nil if any shard lacks counts.
func mergedCounts(per []*engine.Report, merged *assembly.OpCounts) *assembly.OpCounts {
	out := assembly.OpCounts{}
	var probeW, lenW float64
	for _, rep := range per {
		c := rep.Counts
		if c == nil {
			return nil
		}
		if out.K == 0 {
			out.K = c.K
			out.CounterBits = c.CounterBits
			out.DegreeBits = c.DegreeBits
		}
		out.ReadCount += c.ReadCount
		out.TotalKmers += c.TotalKmers
		probeW += c.AvgProbes * c.TotalKmers
		lenW += float64(c.ReadLen) * float64(c.ReadCount)
	}
	if out.TotalKmers > 0 {
		out.AvgProbes = probeW / out.TotalKmers
	}
	if out.ReadCount > 0 {
		out.ReadLen = int((lenW + float64(out.ReadCount)/2) / float64(out.ReadCount))
	}
	out.DistinctKmers = merged.DistinctKmers
	out.Nodes = merged.Nodes
	out.Edges = merged.Edges
	return &out
}
