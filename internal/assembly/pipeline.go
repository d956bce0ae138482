// Package assembly orchestrates the paper's three-stage genome-assembly
// pipeline (Fig. 5a): (1) k-mer analysis building the frequency hash table,
// (2) contig generation via de Bruijn graph construction and traversal, and
// (3) scaffolding. The paper parallelises stages 1-2 on PIM-Assembler and
// leaves stage 3 to future work; this package provides both the software
// reference pipeline, the PIM-functional pipeline running on the simulated
// hardware, and the operation-count extraction that feeds the analytical
// performance models.
package assembly

import (
	"fmt"
	"time"

	"pimassembler/internal/correct"
	"pimassembler/internal/debruijn"
	"pimassembler/internal/genome"
	"pimassembler/internal/kmer"
)

// Options configures a pipeline run.
type Options struct {
	// K is the k-mer length (the paper sweeps 16, 22, 26, 32).
	K int
	// MinCount drops k-mers observed fewer times before graph construction
	// (0 or 1 keeps everything).
	MinCount uint32
	// UseFleury selects the paper's Fleury traversal for the Euler stage
	// instead of Hierholzer (slow; only sensible on small graphs).
	UseFleury bool
	// Simplify runs the Velvet-style error-removal passes (tip clipping
	// and bubble popping) after graph construction. Combine with MinCount
	// for noisy reads.
	Simplify bool
	// Correct runs k-mer-spectrum read correction before counting (input
	// reads are copied, not mutated). SolidThreshold sets the trusted-count
	// floor (default 3 when zero).
	Correct        bool
	SolidThreshold uint32
	// Scaffold enables stage 3 (greedy overlap scaffolding).
	Scaffold bool
	// MinOverlap is the minimum contig overlap stage 3 will join on.
	MinOverlap int
	// ParallelStage1 shards stage 1 of AssemblePIM across the hash table's
	// sub-arrays with a bank-keyed worker pool (bit-identical to the serial
	// path; ignored by the software reference pipeline).
	ParallelStage1 bool
	// CountWorkers fans stage 1 of the software pipeline out over the
	// hash-partitioned parallel counter (kmer.CountReadsParallel) with this
	// many workers. 0 or 1 keeps the pinned serial kmer.CountReads path,
	// byte-identical to previous releases. Contigs, entries, counts, and
	// spectra are identical for any value; the probe statistics feeding
	// OpCounts.AvgProbes reflect the partitioned layout when parallel (and
	// are themselves invariant in the worker count).
	CountWorkers int
	// StreamStage1 makes AssembleSource count stage-1 k-mers one read at a
	// time instead of draining the source into a slice first, so resident
	// memory is bounded by the record in flight plus the table — the
	// out-of-core spill path sets this. It only takes effect on the serial,
	// uncorrected path (Correct and CountWorkers > 1 need the full read
	// set); Assemble ignores it. Contigs, entries, counts, and probe
	// statistics are identical either way.
	StreamStage1 bool
}

// DefaultOptions returns a pipeline configuration matching the paper's
// primary setting (k = 16, no trimming, stages 1-2).
func DefaultOptions() Options {
	return Options{K: 16, MinCount: 0, MinOverlap: 12}
}

func (o Options) validate() error {
	if o.K < 2 || o.K > kmer.MaxK {
		return fmt.Errorf("assembly: k=%d outside [2,%d]", o.K, kmer.MaxK)
	}
	if o.Scaffold && o.MinOverlap <= 0 {
		return fmt.Errorf("assembly: scaffolding needs a positive overlap, got %d", o.MinOverlap)
	}
	return nil
}

// StageTimings records wall-clock spent in each software stage.
type StageTimings struct {
	Hashmap  time.Duration
	DeBruijn time.Duration
	Traverse time.Duration
	Scaffold time.Duration
}

// Result is a completed assembly.
type Result struct {
	Options Options
	// Table is the stage-1 counter: *kmer.CountTable on the serial path,
	// *kmer.PartitionedTable when Options.CountWorkers > 1.
	Table     kmer.Counter
	Graph     *debruijn.Graph
	Contigs   []debruijn.Contig
	Scaffolds []Scaffold
	// EulerWalk is the Eulerian node walk when one exists (nil otherwise);
	// contigs never depend on it.
	EulerWalk []kmer.Kmer
	// EulerErr is why no Eulerian walk was emitted (nil when EulerWalk is
	// set). Real read sets rarely form a single Eulerian component, so this
	// is diagnostic, not fatal.
	EulerErr error
	Timings  StageTimings
	Counts   OpCounts
}

// Assemble runs the software reference pipeline over reads.
func Assemble(reads []*genome.Sequence, opts Options) (*Result, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if len(reads) == 0 {
		return nil, fmt.Errorf("assembly: no reads")
	}
	res := &Result{Options: opts}

	// Stage 0 (optional): spectrum-based read correction on copies.
	if opts.Correct {
		threshold := opts.SolidThreshold
		if threshold == 0 {
			threshold = 3
		}
		copies := make([]*genome.Sequence, len(reads))
		for i, r := range reads {
			copies[i] = r.Subsequence(0, r.Len())
		}
		correct.FromReadsWorkers(copies, opts.K, threshold, 4, opts.CountWorkers).CorrectAll(copies)
		reads = copies
	}

	// Stage 1: k-mer analysis (Hashmap procedure) — serial reference table,
	// or the hash-partitioned parallel counter when CountWorkers > 1.
	start := time.Now()
	if opts.CountWorkers > 1 {
		res.Table = kmer.CountReadsParallel(reads, opts.K, opts.CountWorkers)
	} else {
		res.Table = kmer.CountReads(reads, opts.K)
	}
	res.Timings.Hashmap = time.Since(start)

	finishStages(res, opts)
	res.Counts = measureCounts(totalsOf(reads, opts.K), res)
	return res, nil
}

// finishStages runs stages 2a, 2b, and 3 from the populated stage-1 table —
// the shared tail of the slice-backed and streaming entry points. Both call
// it with identical table contents, which is what makes their contigs
// byte-identical.
func finishStages(res *Result, opts Options) {
	// Stage 2a: de Bruijn graph construction (dense interned-ID/CSR core,
	// pre-sized from the table so the build path never regrows).
	start := time.Now()
	if opts.MinCount > 1 {
		entries := res.Table.FilterMinCount(opts.MinCount)
		g := debruijn.NewGraphHint(opts.K, len(entries)+1, len(entries))
		for _, e := range entries {
			g.AddKmer(e.Kmer, e.Count)
		}
		res.Graph = g
	} else {
		res.Graph = debruijn.Build(res.Table)
	}
	if opts.Simplify {
		res.Graph.Simplify(2*opts.K, 2*opts.K, 10)
	}
	res.Timings.DeBruijn = time.Since(start)

	// Stage 2b: traversal and contig emission.
	start = time.Now()
	if opts.UseFleury {
		if walk, err := res.Graph.FleuryPath(); err == nil {
			res.EulerWalk = walk
		} else {
			res.EulerErr = err
		}
	} else if walk, err := res.Graph.EulerPath(); err == nil {
		res.EulerWalk = walk
	} else {
		res.EulerErr = err
	}
	res.Contigs = res.Graph.Contigs()
	res.Timings.Traverse = time.Since(start)

	// Stage 3: scaffolding (the paper's future work; our extension).
	if opts.Scaffold {
		start = time.Now()
		res.Scaffolds = ScaffoldContigs(res.Contigs, opts.MinOverlap)
		res.Timings.Scaffold = time.Since(start)
	}
}

// workloadTotals are the whole-input aggregates feeding OpCounts; the
// slice path measures them in one pass, the streaming path accumulates
// them read by read.
type workloadTotals struct {
	reads int64 // read count
	bases int64 // summed read length
	kmers int64 // total k-mer occurrences
}

// add folds one read into the totals.
func (t *workloadTotals) add(r *genome.Sequence, k int) {
	t.reads++
	t.bases += int64(r.Len())
	if r.Len() >= k {
		t.kmers += int64(r.Len() - k + 1)
	}
}

// totalsOf measures a read slice in one pass.
func totalsOf(reads []*genome.Sequence, k int) workloadTotals {
	var t workloadTotals
	for _, r := range reads {
		t.add(r, k)
	}
	return t
}

// measureCounts extracts the operation counts of this run for the
// analytical models.
func measureCounts(t workloadTotals, res *Result) OpCounts {
	probes := res.Table.ProbeOps()
	avg := 1.0
	if t.kmers > 0 {
		avg = float64(probes) / float64(t.kmers)
	}
	readLen := 0
	if t.reads > 0 {
		readLen = int((t.bases + t.reads/2) / t.reads)
	}
	return OpCounts{
		K:             res.Options.K,
		ReadCount:     t.reads,
		ReadLen:       readLen,
		TotalKmers:    float64(t.kmers),
		DistinctKmers: float64(res.Table.Len()),
		AvgProbes:     avg,
		Nodes:         float64(res.Graph.NumNodes()),
		Edges:         float64(res.Graph.NumEdges()),
		CounterBits:   32,
		DegreeBits:    9,
	}
}
