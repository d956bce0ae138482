package assembly

import (
	"context"
	"fmt"

	"pimassembler/internal/core"
	"pimassembler/internal/correct"
	"pimassembler/internal/debruijn"
	"pimassembler/internal/genome"
	"pimassembler/internal/kmer"
)

// PIMResult is an assembly executed on the functional PIM simulator: the
// hash table was built with in-memory XNOR probes and ripple increments, the
// graph degrees with in-memory popcounts, and every command is recorded in
// the platform's exec.Stream.
type PIMResult struct {
	Result
	Platform *core.Platform
	// HashSubarrays is how many sub-arrays the hash table spread over.
	HashSubarrays int
	// BankSubarrays is how many sub-arrays the sequence bank occupied.
	BankSubarrays int
}

// AssemblePIM runs the pipeline with stages 1-2 on the functional PIM
// platform, fully memory-resident: the short reads are first stored into the
// Original Sequence Bank (Fig. 6), then streamed back out through the memory
// path as the controller parses k-mers into the hash sub-arrays. nSubarrays
// bounds the hash-table spread (keep it small for tests; the analytical model
// covers full scale). The returned contigs are produced from the table read
// back out of the simulated DRAM rows, so every base has passed through the
// in-memory pipeline twice — once as a banked read, once as a hash entry.
// Everything around those stages — read correction, the MinCount filter,
// simplification, contigs, scaffolding — is the host code AssembleSource
// runs, so every option gives the contigs the software pipeline gives.
//
// Stage 1 is simulated in arrival order, one k-mer at a time. The overlap a
// controller gets from the k-mers' home sub-arrays is modelled, not run on
// host goroutines: p.Stream().Canonical() interleaves the recorded commands
// across sub-arrays, and sched.ScheduleStream prices that interleaving.
func AssemblePIM(p *core.Platform, src genome.ReadSource, opts Options, nSubarrays int) (*PIMResult, error) {
	return AssemblePIMContext(context.Background(), p, src, opts, nSubarrays)
}

// AssemblePIMContext is AssemblePIM under a context: a cancelled ctx ends
// the run with ctx.Err() at the next read or stage boundary.
func AssemblePIMContext(ctx context.Context, p *core.Platform, src genome.ReadSource, opts Options, nSubarrays int) (*PIMResult, error) {
	b := &pimBackend{platform: p, hashN: nSubarrays}
	res, err := run(ctx, b, src, opts)
	if err != nil {
		return nil, err
	}
	return &PIMResult{Result: *res, Platform: p, HashSubarrays: nSubarrays, BankSubarrays: b.bankN}, nil
}

// pimBackend runs stage 1 and the degree computation of the traversal on
// the simulated platform. Sub-arrays are laid out bank, hash table, graph.
type pimBackend struct {
	platform *core.Platform
	hashN    int // hash-table spread
	bankN    int // sequence-bank size, known once count has seen the reads
}

// count stores the reads into the sequence bank, streams them back into
// the hash sub-arrays, and reads the finished table out through the memory
// path — once: HashTable.Entries is simulated READ traffic. The rows are
// handed on as read, in their k-mer order, never rehashed: a table corrupted
// by injected faults can hold one k-mer in two rows, and the graph built
// from it must not depend on a host hash function.
func (b *pimBackend) count(src genome.ReadSource, opts Options) (spectrum, error) {
	var sp spectrum
	// The bank is sized before the first read is stored, so the source is
	// drained up front.
	reads, err := genome.ReadAll(src)
	if err != nil || len(reads) == 0 {
		return sp, err
	}
	return b.countReads(reads, opts)
}

// countCorrected repairs the reads on the host and counts the repaired
// reads on the simulator, as count counts any others.
func (b *pimBackend) countCorrected(c *correct.Corrector, reads []*genome.Sequence, opts Options) (spectrum, error) {
	c.CorrectAll(reads)
	if len(reads) == 0 {
		return spectrum{}, nil
	}
	return b.countReads(reads, opts)
}

// countReads is count over reads already in memory, at least one.
func (b *pimBackend) countReads(reads []*genome.Sequence, opts Options) (spectrum, error) {
	var sp spectrum
	p := b.platform
	perRow := p.Geometry().ColsPerSubarray / genome.BaseBits
	rowsNeeded := 0
	for _, r := range reads {
		sp.totals.add(r.Len(), opts.K)
		rowsNeeded += (r.Len() + perRow - 1) / perRow
	}
	// Row-granular packing can spill across a sub-array boundary once per
	// sub-array; one spare absorbs it.
	b.bankN = (rowsNeeded+p.Geometry().DataRows()-1)/p.Geometry().DataRows() + 1
	if total := p.Geometry().TotalSubarrays(); b.bankN+b.hashN > total {
		return sp, fmt.Errorf("assembly: %d sequence-bank and %d hash sub-arrays exceed the geometry's %d", b.bankN, b.hashN, total)
	}
	bank := core.NewSequenceBank(p, 0, b.bankN)
	if err := bank.StoreAll(reads); err != nil {
		return sp, err
	}

	table := core.NewHashTableAt(p, opts.K, b.bankN, b.hashN)
	if err := countTable(bank, table, opts.K); err != nil {
		return sp, err
	}
	entries := table.Entries()
	sp.distinct, sp.avgProbes = len(entries), 1
	if sp.totals.kmers > 0 {
		sp.avgProbes = float64(table.ProbeOps()) / float64(sp.totals.kmers)
	}
	if opts.MinCount > 1 {
		kept := entries[:0]
		for _, e := range entries {
			if e.Count >= opts.MinCount {
				kept = append(kept, e)
			}
		}
		entries = kept
	}
	sp.entries = entries
	return sp, nil
}

// walk loads g into the graph sub-arrays and runs the Traverse procedure:
// in-memory degree computation and start-vertex selection, then the host
// edge walk. It runs for the commands it records; contigs never depend on
// the walk, so the walk, or why there is none, is not kept. A test repeats
// it at the same sub-arrays from the PIMResult and compares it with the
// host's Graph.EulerPath.
func (b *pimBackend) walk(g *debruijn.Graph) {
	_, _ = core.NewGraphEngine(b.platform, g, b.bankN+b.hashN).EulerPath()
}

// countTable streams the bank and runs the Hashmap procedure k-mer by
// k-mer, stopping the read stream at the first hash-table error.
func countTable(bank *core.SequenceBank, table *core.HashTable, k int) error {
	var addErr error
	bank.Each(func(_ int, r *genome.Sequence) bool {
		kmer.Iterate(r, k, func(km kmer.Kmer) {
			if addErr != nil {
				return
			}
			if _, err := table.Add(km); err != nil {
				addErr = err
			}
		})
		return addErr == nil
	})
	return addErr
}
