package kmer

import (
	"pimassembler/internal/genome"
	"pimassembler/internal/parallel"
)

// DefaultPartitions is the partition count CountReadsParallel uses: enough
// partitions that every worker count up to DefaultPartitions gets disjoint
// ownership, and each partition's table stays small enough to be
// cache-resident on realistic workloads. The partition count — never the
// worker count — determines the physical probe sequences, so keeping it a
// fixed constant makes ProbeOps (and everything else) invariant in the
// worker count.
const DefaultPartitions = 64

// maxPartitions bounds NewPartitionedTable against absurd requests.
const maxPartitions = 1 << 16

// Staging geometry of the parallel counting pipeline. Reads are scanned in
// chunks of stageChunkReads; staged k-mers are drained into the partition
// tables whenever a batch reaches stageBatchKmers, so resident staging
// memory is bounded (~9 MiB at the default: 34 bytes per staged k-mer
// across code, hash, partition, and scatter buffers) however large the read
// set is. Both constants are pure functions of nothing — batch and chunk
// boundaries depend only on the read list and k, never on workers — which
// the determinism contract relies on.
const (
	stageChunkReads = 64
	stageBatchKmers = 1 << 18
)

// PartitionedTable is the hash-partitioned parallel counterpart of
// CountTable: k-mer space is split into P partitions by the top bits of
// Kmer.Hash, each partition owning an independent CountTable (its own
// capacity, growth schedule, and probe counter). Routing is a pure function
// of the k-mer, so a distinct k-mer lives in exactly one partition and the
// aggregate (counts, entries) is the disjoint union of the
// per-partition tables — no cross-partition merge of counts ever happens.
//
// Determinism: entries order, counts, Len, and FilterMinCount are
// identical to a serial CountTable over the same reads, for any partition
// count and any worker count. ProbeOps is the sum of the per-partition
// probe counters: invariant in the worker count (insertion order per
// partition is pinned to read order), but it reflects the physical layout,
// so it varies with the partition count.
type PartitionedTable struct {
	k     int
	shift uint // partition = Hash() >> shift; shift = 64 - log2(P)
	parts []*CountTable
}

// NewPartitionedTable creates a table of `partitions` partitions (rounded
// up to a power of two, clamped to [1, 65536]) for k-mers of length k, with
// aggregate capacity for about hint distinct entries before any partition
// grows.
func NewPartitionedTable(k, partitions, hint int) *PartitionedTable {
	checkK(k)
	if partitions < 1 {
		partitions = 1
	}
	if partitions > maxPartitions {
		partitions = maxPartitions
	}
	p := 1
	shift := uint(64)
	for p < partitions {
		p *= 2
		shift--
	}
	parts := make([]*CountTable, p)
	for i := range parts {
		parts[i] = NewCountTable(k, hint/p)
	}
	return &PartitionedTable{k: k, shift: shift, parts: parts}
}

// K returns the table's k-mer length.
func (t *PartitionedTable) K() int { return t.k }

// Len returns the number of distinct k-mers stored across all partitions.
func (t *PartitionedTable) Len() int {
	n := 0
	for _, p := range t.parts {
		n += p.Len()
	}
	return n
}

// ProbeOps returns the aggregate probe comparisons over all partitions.
func (t *PartitionedTable) ProbeOps() int64 {
	var ops int64
	for _, p := range t.parts {
		ops += p.ProbeOps()
	}
	return ops
}

// Count returns the stored count of km (0 if absent).
func (t *PartitionedTable) Count(km Kmer) uint32 {
	hash := km.Hash()
	return t.parts[hash>>t.shift].countHashed(km, hash)
}

// CountAll stores Count(kms[i]) in counts[i] for every i.
func (t *PartitionedTable) CountAll(kms []Kmer, counts []uint32) {
	counts = counts[:len(kms)]
	for i, km := range kms {
		counts[i] = t.Count(km)
	}
}

// FilterMinCount returns the entries with count ≥ min, sorted by k-mer value
// as the serial CountTable sorts them: each partition's run is filtered and
// sorted independently (in parallel, radix), then the P runs are merged —
// linear in the entry count for the fixed partition counts in use, instead
// of a global O(n log n) comparison sort.
func (t *PartitionedTable) FilterMinCount(min uint32) []Entry {
	runs := make([][]Entry, len(t.parts))
	parallel.ForEach(len(t.parts), func(i int) { runs[i] = t.parts[i].FilterMinCount(min) })
	return mergeEntryRuns(runs)
}

// mergeEntryRuns merges sorted entry runs into one sorted slice. Distinct
// k-mers never repeat across runs (routing is a pure function of the key),
// so the merge is a plain k-way minimum selection over the run heads,
// organised as a small binary heap of run indices: O(n log P) comparisons —
// linear in n for a fixed partition count — and a single output allocation.
func mergeEntryRuns(runs [][]Entry) []Entry {
	total := 0
	live := make([]int, 0, len(runs))
	for i, r := range runs {
		total += len(r)
		if len(r) > 0 {
			live = append(live, i)
		}
	}
	out := make([]Entry, 0, total)
	switch len(live) {
	case 0:
		return out
	case 1:
		return append(out, runs[live[0]]...)
	}

	pos := make([]int, len(runs))
	head := func(i int) Kmer { return runs[i][pos[i]].Kmer }
	// Build the heap of run indices ordered by their head k-mer.
	heap := live
	less := func(a, b int) bool { return head(heap[a]) < head(heap[b]) }
	down := func(i int) {
		for {
			l, r := 2*i+1, 2*i+2
			min := i
			if l < len(heap) && less(l, min) {
				min = l
			}
			if r < len(heap) && less(r, min) {
				min = r
			}
			if min == i {
				return
			}
			heap[i], heap[min] = heap[min], heap[i]
			i = min
		}
	}
	for i := len(heap)/2 - 1; i >= 0; i-- {
		down(i)
	}
	for len(heap) > 0 {
		r := heap[0]
		out = append(out, runs[r][pos[r]])
		pos[r]++
		if pos[r] == len(runs[r]) {
			heap[0] = heap[len(heap)-1]
			heap = heap[:len(heap)-1]
		}
		down(0)
	}
	return out
}

// CountReadsParallel builds a hash-partitioned table over every k-mer of
// every read — stage 1 of the assembly pipeline, fanned out over workers on
// DefaultPartitions partitions. Counts, entries order, and
// ProbeOps are bit-identical for any worker count; counts and entries are
// additionally identical to the serial CountReads table.
func CountReadsParallel(reads []*genome.Sequence, k, workers int) *PartitionedTable {
	return CountReadsPartitioned(reads, k, DefaultPartitions, workers)
}

// chunkStage is one scan chunk's staging state, reused across batches: the
// chunk's k-mers in read order, each k-mer's partition, and the k-mers
// scattered into per-partition runs (run p is scat[off[p]:off[p+1]],
// read order preserved within the run — the scatter is stable).
type chunkStage struct {
	kms  []Kmer
	pid  []uint16
	off  []int32
	pos  []int32
	scat []Kmer
}

// stage fills the chunk's buffers from reads in one fused pass — extract
// every k-mer, route it by top hash bits, count partition occupancy —
// then prefix-sums the occupancy and scatters. Buffers are pre-sized from
// the read lengths, so the hot loop is plain index stores.
func (c *chunkStage) stage(reads []*genome.Sequence, k int, nparts int, shift uint) {
	n := 0
	for _, r := range reads {
		if m := r.Len() - k + 1; m > 0 {
			n += m
		}
	}
	if cap(c.kms) < n {
		c.kms = make([]Kmer, n)
		c.pid = make([]uint16, n)
		c.scat = make([]Kmer, n)
	}
	c.kms = c.kms[:n]
	c.pid = c.pid[:n]
	c.scat = c.scat[:n]
	if cap(c.off) < nparts+1 {
		c.off = make([]int32, nparts+1)
		c.pos = make([]int32, nparts)
	}
	c.off = c.off[:nparts+1]
	for i := range c.off {
		c.off[i] = 0
	}
	idx := 0
	for _, r := range reads {
		Iterate(r, k, func(km Kmer) {
			p := uint16(km.Hash() >> shift)
			c.kms[idx] = km
			c.pid[idx] = p
			c.off[p+1]++
			idx++
		})
	}
	for p := 0; p < nparts; p++ {
		c.off[p+1] += c.off[p]
	}
	// Stable scatter: pos[p] walks run p from its start offset.
	c.pos = c.pos[:nparts]
	copy(c.pos, c.off[:nparts])
	for i, km := range c.kms {
		p := c.pid[i]
		c.scat[c.pos[p]] = km
		c.pos[p]++
	}
}

// run returns the chunk's staged k-mers for partition p, in read order.
func (c *chunkStage) run(p int) []Kmer { return c.scat[c.off[p]:c.off[p+1]] }

// CountReadsPartitioned is CountReadsParallel with an explicit partition
// count. workers <= 0 means parallel.Workers(); the output is bit-identical
// for any worker value, including 1 — the parallel == serial contract of
// internal/parallel, which the race-gated property tests pin.
//
// Shape: reads are scanned in fixed-size chunks; each scan task extracts
// its chunk's k-mers and scatters them into per-partition runs (top hash
// bits choose the partition; the scatter is stable, so runs keep read
// order). When a batch of staged k-mers reaches the bound, partition tasks
// drain it: partition p folds the batch's runs chunk-by-chunk in chunk
// order, so per-partition insertion order is exactly read order restricted
// to the partition — independent of workers, chunk size, and batch
// boundaries, which is what makes ProbeOps worker-invariant. No locks
// anywhere: scan tasks own their chunk's buffers, drain tasks own their
// partition's table, and the staging buffers are reused across batches so
// resident memory stays bounded by the batch budget.
func CountReadsPartitioned(reads []*genome.Sequence, k, partitions, workers int) *PartitionedTable {
	checkK(k)
	if workers <= 0 {
		workers = parallel.Workers()
	}
	t := NewPartitionedTable(k, partitions, 0)
	nparts := len(t.parts)
	shift := t.shift

	var stages []*chunkStage
	lo := 0
	for lo < len(reads) {
		// Grow the batch read-by-read until the staged k-mer budget is
		// reached (always at least one chunk of reads).
		hi, staged := lo, 0
		for hi < len(reads) && (staged < stageBatchKmers || hi-lo < stageChunkReads) {
			if n := reads[hi].Len() - k + 1; n > 0 {
				staged += n
			}
			hi++
		}
		spans := parallel.Spans(hi-lo, stageChunkReads)
		for len(stages) < len(spans) {
			stages = append(stages, &chunkStage{})
		}
		parallel.ForEachWorkers(workers, len(spans), func(c int) {
			stages[c].stage(reads[lo+spans[c].Lo:lo+spans[c].Hi], k, nparts, shift)
		})
		parallel.ForEachWorkers(workers, nparts, func(p int) {
			tbl := t.parts[p]
			for c := range spans {
				tbl.AddAll(stages[c].run(p))
			}
		})
		lo = hi
	}
	return t
}
