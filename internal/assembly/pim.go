package assembly

import (
	"fmt"
	"sync"

	"pimassembler/internal/core"
	"pimassembler/internal/debruijn"
	"pimassembler/internal/genome"
	"pimassembler/internal/kmer"
)

// PIMResult is an assembly executed on the functional PIM simulator: the
// hash table was built with in-memory XNOR probes and ripple increments, the
// graph degrees with in-memory popcounts, and the command stream is on the
// platform meter and the platform's exec.Stream.
type PIMResult struct {
	Result
	Platform *core.Platform
	// HashSubarrays is how many sub-arrays the hash table spread over.
	HashSubarrays int
	// BankSubarrays is how many sub-arrays the sequence bank occupied.
	BankSubarrays int
}

// AssemblePIM runs stages 1-2 on the functional PIM platform, fully
// memory-resident: the short reads are first stored into the Original
// Sequence Bank (Fig. 6), then streamed back out through the memory path as
// the controller parses k-mers into the hash sub-arrays. nSubarrays bounds
// the hash-table spread (keep it small for tests; the analytical model
// covers full scale). The returned contigs are produced from the table read
// back out of the simulated DRAM rows, so every base has passed through the
// in-memory pipeline twice — once as a banked read, once as a hash entry.
//
// With opts.ParallelStage1 the k-mer stream is sharded by home sub-array and
// the Hashmap procedure runs on a bank-keyed worker pool (bounded by the
// scheduler's per-bank activation budget). The resulting table is
// bit-identical to the serial path's: every k-mer's probes, inserts, and
// counter updates stay inside its home sub-array, and the shards preserve
// the serial arrival order within each sub-array.
func AssemblePIM(p *core.Platform, reads []*genome.Sequence, opts Options, nSubarrays int) (*PIMResult, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if len(reads) == 0 {
		return nil, fmt.Errorf("assembly: no reads")
	}

	// Stage 0: load the reads into the sequence bank.
	perRow := p.Geometry().ColsPerSubarray / genome.BaseBits
	rowsNeeded := 0
	for _, r := range reads {
		rowsNeeded += (r.Len() + perRow - 1) / perRow
	}
	bankN := (rowsNeeded + p.Geometry().DataRows() - 1) / p.Geometry().DataRows()
	// Row-granular packing can spill across a sub-array boundary once per
	// sub-array; one spare absorbs it.
	bankN++
	bank := core.NewSequenceBank(p, 0, bankN)
	if err := bank.StoreAll(reads); err != nil {
		return nil, err
	}

	// Stage 1: PIM k-mer analysis, streaming reads back from the bank.
	table := core.NewHashTableAt(p, opts.K, bankN, nSubarrays)
	var addErr error
	if opts.ParallelStage1 {
		addErr = countParallel(p, bank, table, opts.K)
	} else {
		addErr = countSerial(bank, table, opts.K)
	}
	if addErr != nil {
		return nil, addErr
	}

	// Stage 2a: graph construction from the DRAM-resident table, into the
	// dense interned-ID/CSR graph pre-sized for the table's entry count.
	entries := table.Entries()
	g := debruijn.NewGraphHint(opts.K, len(entries)+1, len(entries))
	for _, e := range entries {
		if opts.MinCount > 1 && e.Count < opts.MinCount {
			continue
		}
		g.AddKmer(e.Kmer, e.Count)
	}

	// Stage 2b: PIM degree computation + traversal, then contigs.
	res := &PIMResult{
		Result: Result{
			Options: opts,
			Graph:   g,
		},
		Platform:      p,
		HashSubarrays: nSubarrays,
		BankSubarrays: bankN,
	}
	engine := core.NewGraphEngine(p, g, bankN+nSubarrays)
	if walk, err := engine.EulerPath(); err == nil {
		res.EulerWalk = walk
	} else {
		res.EulerErr = err
	}
	res.Contigs = g.Contigs()
	if opts.Scaffold {
		res.Scaffolds = ScaffoldContigs(res.Contigs, opts.MinOverlap)
	}
	var totals workloadTotals
	for _, r := range reads {
		totals.add(r, opts.K)
	}
	res.Counts = measureCounts(opts.K, totals, table.ProbeOps(), table.Len(), g)
	return res, nil
}

// countSerial streams the bank and runs the Hashmap procedure k-mer by
// k-mer, stopping the read stream at the first hash-table error.
func countSerial(bank *core.SequenceBank, table *core.HashTable, k int) error {
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

// countParallel is the sharded Hashmap procedure. The read stream is fetched
// from the bank exactly as in the serial path (same dispatch traffic), but
// the parsed k-mers are routed into per-home-sub-array shards that preserve
// the serial arrival order. One worker then owns each sub-array — no two
// goroutines ever touch the same rows, bitmap, or temp region — and workers
// are pooled per bank, at most the scheduler's per-bank activation budget
// running concurrently, mirroring the charge-pump constraint the controller
// enforces in hardware.
func countParallel(p *core.Platform, bank *core.SequenceBank, table *core.HashTable, k int) error {
	shards := make([][]kmer.Kmer, table.Subarrays())
	bank.Each(func(_ int, r *genome.Sequence) bool {
		kmer.Iterate(r, k, func(km kmer.Kmer) {
			home := table.Home(km)
			shards[home] = append(shards[home], km)
		})
		return true
	})

	// Sub-array materialisation mutates platform maps: do it all up front so
	// workers only perform concurrent-safe operations.
	table.Materialize()

	// Group shards by bank; each bank gets its own bounded worker pool.
	spb := p.Geometry().SubarraysPerBank()
	budget := p.SchedConfig().MaxActivePerBank
	perBank := make(map[int][]int)
	for subIdx, shard := range shards {
		if len(shard) == 0 {
			continue
		}
		b := table.GlobalSubarray(subIdx) / spb
		perBank[b] = append(perBank[b], subIdx)
	}

	errs := make([]error, table.Subarrays())
	var wg sync.WaitGroup
	for _, subs := range perBank {
		queue := make(chan int, len(subs))
		for _, subIdx := range subs {
			queue <- subIdx
		}
		close(queue)
		workers := budget
		if workers > len(subs) {
			workers = len(subs)
		}
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for subIdx := range queue {
					for _, km := range shards[subIdx] {
						if _, err := table.Add(km); err != nil {
							errs[subIdx] = err
							break
						}
					}
				}
			}()
		}
	}
	wg.Wait()

	// Deterministic error selection: lowest failing sub-array wins,
	// regardless of goroutine completion order.
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
