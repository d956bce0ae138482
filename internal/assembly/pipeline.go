// Package assembly orchestrates the paper's three-stage genome-assembly
// pipeline (Fig. 5a): (1) k-mer analysis building the frequency hash table,
// (2) contig generation via de Bruijn graph construction and traversal, and
// (3) scaffolding. The paper parallelises stages 1-2 on PIM-Assembler and
// leaves stage 3 to future work; this package provides the one pipeline
// body (run), its two backends — the software reference and the functional
// PIM platform, which differ only in where stage 1 and the traversal's
// degree computation execute — and the operation-count extraction that
// feeds the analytical performance models.
package assembly

import (
	"fmt"
	"io"
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
	// many workers; 0 or 1 counts serially, read by read. Contigs, entries,
	// counts, and spectra are identical for any value; the probe statistics
	// feeding OpCounts.AvgProbes reflect the partitioned layout when
	// parallel (and are themselves invariant in the worker count).
	CountWorkers int
	// StreamStage1 is ignored: AssembleSource always counts read by read
	// and drains the source exactly where Correct or CountWorkers > 1 need
	// the whole read set. The field remains so callers that set it compile.
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
	// *kmer.PartitionedTable when Options.CountWorkers > 1, and for
	// AssemblePIM the entries read back out of the simulated rows.
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

// backend is where one run executes the two steps that differ between the
// software reference and the PIM platform; everything else in run is shared,
// so every option means the same thing on either.
type backend interface {
	// count is stage 1 (the Hashmap procedure): it drains src into the
	// k-mer spectrum and the workload totals. No reads is not an error
	// here — run reports it from the zero totals.
	count(src genome.ReadSource, opts Options) (kmer.Counter, workloadTotals, error)
	// walk is the Euler stage of the Traverse procedure over the finished
	// graph.
	walk(g *debruijn.Graph, opts Options) ([]kmer.Kmer, error)
}

// Assemble runs the software reference pipeline over an in-memory read set:
// AssembleSource over a slice source.
func Assemble(reads []*genome.Sequence, opts Options) (*Result, error) {
	return AssembleSource(genome.NewSliceSource(reads), opts)
}

// AssembleSource runs the software reference pipeline over a read source.
// Stage 1 pulls one read at a time into a grow-on-demand table, so resident
// memory is the record in flight plus the k-mer table and graph, not the
// read set. The source is drained into a slice first only where the
// algorithm needs every read at once: spectrum correction (Correct) builds
// its spectrum before it can fix the first read, and the partitioned
// counter (CountWorkers > 1) scans the read set in chunks.
func AssembleSource(src genome.ReadSource, opts Options) (*Result, error) {
	return run(softwareBackend{}, src, opts)
}

// run is the pipeline of Fig. 5a, the only one: host-side read correction,
// stage 1 on b, the MinCount filter, graph construction and simplification,
// the Euler walk on b, contig emission, scaffolding, and the operation
// profile of what ran.
func run(b backend, src genome.ReadSource, opts Options) (*Result, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if src == nil {
		return nil, fmt.Errorf("assembly: no reads")
	}
	res := &Result{Options: opts}

	if opts.Correct {
		reads, err := genome.ReadAll(src)
		if err != nil {
			return nil, err
		}
		src = genome.NewSliceSource(corrected(reads, opts))
	}

	// Stage 1: k-mer analysis (Hashmap procedure).
	start := time.Now()
	table, totals, err := b.count(src, opts)
	if err != nil {
		return nil, err
	}
	if totals.reads == 0 {
		return nil, fmt.Errorf("assembly: no reads")
	}
	res.Table = table
	res.Timings.Hashmap = time.Since(start)

	// Stage 2a: de Bruijn graph construction, from the table's sorted
	// entries as they are.
	start = time.Now()
	var entries []kmer.Entry
	if opts.MinCount > 1 {
		entries = table.FilterMinCount(opts.MinCount)
	} else {
		entries = table.Entries()
	}
	res.Graph = debruijn.BuildEntries(opts.K, entries)
	if opts.Simplify {
		res.Graph.Simplify(2*opts.K, 2*opts.K, 10)
	}
	res.Timings.DeBruijn = time.Since(start)

	// Stage 2b: traversal and contig emission.
	start = time.Now()
	if walk, err := b.walk(res.Graph, opts); err == nil {
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
	res.Counts = measureCounts(opts.K, totals, table.ProbeOps(), table.Len(), res.Graph)
	return res, nil
}

// corrected returns spectrum-corrected copies of reads (stage 0); the
// inputs are not mutated.
func corrected(reads []*genome.Sequence, opts Options) []*genome.Sequence {
	threshold := opts.SolidThreshold
	if threshold == 0 {
		threshold = 3
	}
	copies := make([]*genome.Sequence, len(reads))
	for i, r := range reads {
		copies[i] = r.Clone()
	}
	correct.FromReadsWorkers(copies, opts.K, threshold, 4, opts.CountWorkers).CorrectAll(copies)
	return copies
}

// softwareBackend is the plain-Go reference: a host hash table and the
// host graph walk.
type softwareBackend struct{}

// count fills the serial reference table read by read, or drains src and
// runs the hash-partitioned parallel counter when CountWorkers > 1.
func (softwareBackend) count(src genome.ReadSource, opts Options) (kmer.Counter, workloadTotals, error) {
	var totals workloadTotals
	if opts.CountWorkers > 1 {
		reads, err := genome.ReadAll(src)
		if err != nil {
			return nil, totals, err
		}
		for _, r := range reads {
			totals.add(r, opts.K)
		}
		return kmer.CountReadsParallel(reads, opts.K, opts.CountWorkers), totals, nil
	}
	table := kmer.NewCountTable(opts.K, 0)
	for {
		r, err := src.Next()
		if err == io.EOF {
			return table, totals, nil
		}
		if err != nil {
			return nil, totals, err
		}
		totals.add(r, opts.K)
		table.AddRead(r)
	}
}

// walk is Hierholzer's algorithm, or the paper's Fleury traversal.
func (softwareBackend) walk(g *debruijn.Graph, opts Options) ([]kmer.Kmer, error) {
	if opts.UseFleury {
		return g.FleuryPath()
	}
	return g.EulerPath()
}

// workloadTotals are the whole-input aggregates feeding OpCounts,
// accumulated read by read.
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

// measureCounts extracts the operation profile of one run for the
// analytical models, software or functional alike: probes is the stage-1
// table's slot-visit count (CountTable or the simulated core.HashTable),
// distinct its entry count, g the graph built from it.
func measureCounts(k int, t workloadTotals, probes int64, distinct int, g *debruijn.Graph) OpCounts {
	avg := 1.0
	if t.kmers > 0 {
		avg = float64(probes) / float64(t.kmers)
	}
	if avg < 1 {
		avg = 1
	}
	readLen := 0
	if t.reads > 0 {
		readLen = int((t.bases + t.reads/2) / t.reads)
	}
	return OpCounts{
		K:             k,
		ReadCount:     t.reads,
		ReadLen:       readLen,
		TotalKmers:    float64(t.kmers),
		DistinctKmers: float64(distinct),
		AvgProbes:     avg,
		Nodes:         float64(g.NumNodes()),
		Edges:         float64(g.NumEdges()),
		CounterBits:   32,
		DegreeBits:    9,
	}
}
