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
	"context"
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
	// Simplify runs the Velvet-style error-removal passes (tip clipping
	// and bubble popping) after graph construction. Combine with MinCount
	// for noisy reads.
	Simplify bool
	// Correct runs k-mer-spectrum read correction before counting, on the
	// fresh copies genome.ReadAll packs from the source, so the caller's
	// reads are never mutated. It trusts the k-mers the reads hold at least
	// SolidThreshold times (default 3 when zero) and nothing else.
	Correct        bool
	SolidThreshold uint32
	// Scaffold enables stage 3 (greedy overlap scaffolding).
	Scaffold bool
	// MinOverlap is the minimum contig overlap stage 3 will join on; zero
	// means K-4 (12 at the paper's k = 16).
	MinOverlap int
	// CountWorkers is how many goroutines fold the kmer.BucketTable of
	// stage 1 and of the correction pre-count, and repair reads; 0 or 1
	// runs on the calling goroutine. Reads are pulled one at a time either
	// way, and contigs, entries, counts and OpCounts, AvgProbes included,
	// are identical for any value.
	CountWorkers int
	// StreamStage1 is ignored: AssembleSource always counts read by read
	// and drains the source only where Correct needs the whole read set.
	// The field remains so callers that set it compile.
	StreamStage1 bool
}

// DefaultOptions returns a pipeline configuration matching the paper's
// primary setting (k = 16, no trimming, stages 1-2).
func DefaultOptions() Options {
	return Options{K: 16}
}

// Validate reports the option sets no run can execute. It is the one check
// every front door makes before it opens an input or admits a job — the CLI's
// flags, a manifest line, a request body — and the one run makes again.
func (o Options) Validate() error {
	if o.K < 2 || o.K > kmer.MaxK {
		return fmt.Errorf("assembly: k=%d outside [2,%d]", o.K, kmer.MaxK)
	}
	if o.Scaffold && o.minOverlap() <= 0 {
		return fmt.Errorf("assembly: scaffolding needs a positive overlap, got %d at k=%d", o.minOverlap(), o.K)
	}
	return nil
}

// minOverlap is the overlap stage 3 joins on: MinOverlap, or K-4 when unset.
func (o Options) minOverlap() int {
	if o.MinOverlap != 0 {
		return o.MinOverlap
	}
	return o.K - 4
}

// StageTimings records wall-clock spent in each software stage. Hashmap is
// everything that produces the spectrum — counting, the MinCount filter and
// the sort that orders the entries; DeBruijn is graph layout and
// simplification over those entries.
type StageTimings struct {
	Hashmap  time.Duration
	DeBruijn time.Duration
	Traverse time.Duration
	Scaffold time.Duration
}

// Result is a completed assembly.
type Result struct {
	Options   Options
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
	// k-mer spectrum. No reads is not an error here — run reports it from
	// the zero totals.
	count(src genome.ReadSource, opts Options) (spectrum, error)
	// walk is the Euler stage of the Traverse procedure over the finished
	// graph.
	walk(g *debruijn.Graph) ([]kmer.Kmer, error)
}

// spectrum is everything stage 1 hands on: the counted k-mers for graph
// construction and the numbers the operation profile needs. Whatever
// counted them — host bucket tables, simulated DRAM rows — is
// garbage once count returns.
type spectrum struct {
	// entries are the k-mers with count ≥ Options.MinCount in ascending
	// k-mer order, the form debruijn.BuildEntries lays out as it stands.
	entries []kmer.Entry
	// distinct is how many k-mers were counted, before the MinCount filter.
	distinct int
	// probes is the counting table's slot comparisons, OpCounts.AvgProbes'
	// numerator.
	probes int64
	totals workloadTotals
}

// Assemble runs the software reference pipeline over an in-memory read set:
// AssembleSource over a slice source.
func Assemble(reads []*genome.Sequence, opts Options) (*Result, error) {
	return AssembleSource(context.Background(), genome.NewSliceSource(reads), opts)
}

// AssembleSource runs the software reference pipeline over a read source.
// Stage 1 pulls one read at a time into the bucketed counter, so resident
// memory is the record in flight plus the staging slab, the k-mer tables and
// the graph, not the read set. The source is drained into a slice first only
// where the algorithm needs every read at once: spectrum correction
// (Correct) builds its spectrum before it can fix the first read. A
// cancelled ctx ends the run with ctx.Err() at the next read or stage
// boundary.
func AssembleSource(ctx context.Context, src genome.ReadSource, opts Options) (*Result, error) {
	return run(ctx, softwareBackend{}, src, opts)
}

// cancelSource ends a read stream with ctx's error once ctx is done, so
// every loop that drains reads — stage 1 read by read, ReadAll where a stage
// needs the whole set — stops at the next read.
type cancelSource struct {
	ctx context.Context
	src genome.ReadSource
}

func (s cancelSource) NextCodes() ([]byte, error) {
	if err := s.ctx.Err(); err != nil {
		return nil, err
	}
	return s.src.NextCodes()
}

// run is the pipeline of Fig. 5a, the only one: host-side read correction,
// stage 1 on b (which applies the MinCount filter), graph construction and
// simplification, the Euler walk on b, contig emission, scaffolding, and the
// operation profile of what ran. ctx is checked before every read pulled
// from src and between stages.
func run(ctx context.Context, b backend, src genome.ReadSource, opts Options) (*Result, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if src == nil {
		return nil, fmt.Errorf("assembly: no reads")
	}
	src = cancelSource{ctx, src}
	res := &Result{Options: opts}

	if opts.Correct {
		reads, err := genome.ReadAll(src)
		if err != nil {
			return nil, err
		}
		src = cancelSource{ctx, genome.NewSliceSource(corrected(reads, opts))}
	}

	// Stage 1: k-mer analysis (Hashmap procedure).
	start := time.Now()
	sp, err := b.count(src, opts)
	if err != nil {
		return nil, err
	}
	if sp.totals.reads == 0 {
		return nil, fmt.Errorf("assembly: no reads")
	}
	res.Timings.Hashmap = time.Since(start)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Stage 2a: de Bruijn graph construction, from the sorted entries as
	// they are.
	start = time.Now()
	res.Graph = debruijn.BuildEntries(opts.K, sp.entries)
	sp.entries = nil // the graph's now; it drops them once it is laid out
	if opts.Simplify {
		res.Graph.Simplify(2*opts.K, 2*opts.K, 10)
	}
	res.Timings.DeBruijn = time.Since(start)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Stage 2b: traversal and contig emission.
	start = time.Now()
	if walk, err := b.walk(res.Graph); err == nil {
		res.EulerWalk = walk
	} else {
		res.EulerErr = err
	}
	res.Contigs = res.Graph.Contigs()
	res.Timings.Traverse = time.Since(start)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Stage 3: scaffolding (the paper's future work; our extension).
	if opts.Scaffold {
		start = time.Now()
		res.Scaffolds = ScaffoldContigs(res.Contigs, opts.minOverlap())
		res.Timings.Scaffold = time.Since(start)
	}
	res.Counts = measureCounts(opts.K, sp, res.Graph)
	return res, nil
}

// corrected spectrum-corrects reads in place (stage 0) and returns them.
// run hands it the fresh copies genome.ReadAll packed, which nothing else
// holds, so no caller's read is mutated.
func corrected(reads []*genome.Sequence, opts Options) []*genome.Sequence {
	threshold := opts.SolidThreshold
	if threshold == 0 {
		threshold = 3
	}
	correct.FromReadsWorkers(reads, opts.K, threshold, 4, opts.CountWorkers).CorrectAll(reads)
	return reads
}

// softwareBackend is the plain-Go reference: a host hash table and the
// host graph walk.
type softwareBackend struct{}

// count folds src into a bucketed counter read by read, on CountWorkers
// goroutines, and reads the filtered, sorted entries out of it. The reads
// arrive as borrowed 2-bit codes: a parsing source lends the codes it
// translated the text into, so no Sequence is built per read.
func (softwareBackend) count(src genome.ReadSource, opts Options) (spectrum, error) {
	var sp spectrum
	table := kmer.NewBucketTable(opts.K, opts.CountWorkers)
	for {
		c, err := src.NextCodes()
		if err == io.EOF {
			break
		}
		if err != nil {
			return sp, err
		}
		sp.totals.add(len(c), opts.K)
		table.AddCodes(c)
	}
	sp.entries, sp.distinct, sp.probes = table.FilterMinCount(opts.MinCount), table.Len(), table.ProbeOps()
	return sp, nil
}

// walk is Hierholzer's algorithm.
func (softwareBackend) walk(g *debruijn.Graph) ([]kmer.Kmer, error) {
	return g.EulerPath()
}

// workloadTotals are the whole-input aggregates feeding OpCounts,
// accumulated read by read.
type workloadTotals struct {
	reads int64 // read count
	bases int64 // summed read length
	kmers int64 // total k-mer occurrences
}

// add folds one read of n bases into the totals.
func (t *workloadTotals) add(n, k int) {
	t.reads++
	t.bases += int64(n)
	if n >= k {
		t.kmers += int64(n - k + 1)
	}
}

// measureCounts extracts the operation profile of one run for the
// analytical models, software or functional alike, from what stage 1 handed
// on and the graph g built from it.
func measureCounts(k int, sp spectrum, g *debruijn.Graph) OpCounts {
	t := sp.totals
	avg := 1.0
	if t.kmers > 0 {
		avg = float64(sp.probes) / float64(t.kmers)
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
		DistinctKmers: float64(sp.distinct),
		AvgProbes:     avg,
		Nodes:         float64(g.NumNodes()),
		Edges:         float64(g.NumEdges()),
		CounterBits:   32,
		DegreeBits:    9,
	}
}
