package kmer

import (
	"math/bits"
	"sync"

	"pimassembler/internal/genome"
	"pimassembler/internal/parallel"
)

// The bucketed counter's geometry. All of it is constant, so where a table
// splits and where a fold round starts depend on the reads alone.
const (
	// splitDistinct is how many distinct k-mers the single table holds
	// before it splits: 2^15 entries at load ½ are a 1 MiB table. Only
	// k ≥ 8 has that many k-mers, so a split always has 2k ≥ 16 code bits
	// to take the bucket prefix from.
	splitDistinct = 1 << 15
	// bucketBits is the width of the k-mer-code prefix that names a bucket.
	bucketBits = 8
	numBuckets = 1 << bucketBits
	// stageBlock is the k-mers in one staging block and stageBudget the
	// k-mers of the slab the blocks are cut from (16 MiB). A fold round
	// starts when a bucket needs a block and the slab has none left.
	stageBlock  = 1 << 10
	stageBudget = 1 << 21
)

// BucketTable is stage 1's counter. It starts as one CountTable. When that
// table holds more than splitDistinct k-mers it splits into numBuckets
// tables: bucket b owns the k-mers whose top bucketBits code bits are b, a
// slice of k-mer space, as the paper's Hashmap gives each k-mer a home
// sub-array. From then on AddRead stages each k-mer in its bucket's blocks,
// and a fold round adds the staged k-mers one bucket at a time, so each
// bucket's table is probed while it sits in cache instead of one large table
// missing on every add. Buckets are value ranges, so the sorted entries are
// the buckets' sorted runs laid end to end.
//
// A bucket's k-mers reach its table in read order whatever the worker count,
// so counts, entries, Len and ProbeOps are the same for every worker count,
// and counts and entries are those of CountReads. ProbeOps sums the probes of
// the tables that counted: the single table up to the split, then the bucket
// tables, in which a k-mer probes only its own bucket. Moving the single
// table's entries into the buckets is table maintenance, like growth, and
// costs no probes.
//
// Every reader folds what AddRead left staged first, so the first read after
// an AddRead must not run beside another call. After it, any number of
// goroutines may look up at once.
type BucketTable struct {
	k       int
	workers int // fold and read-out goroutines, in [1, numBuckets]
	// tables holds the single table before the split and bucket b's table
	// at index b after it. shift is 64 before the split, so every k-mer maps
	// to index 0, and 2k-bucketBits after it.
	tables []*CountTable
	shift  uint
	probes int64 // the single table's probes, once it has split
	staged *[numBuckets]stage
	slab   []Kmer // the staging blocks, cut in order
	cut    int    // blocks cut from slab since the last fold
	pool   slotPool
}

// stage is the k-mers staged for one bucket since the last fold, in read
// order: its filled blocks, then the first n k-mers of open.
type stage struct {
	full [][]Kmer
	open []Kmer
	n    int
}

// NewBucketTable returns an empty counter for k-mers of length k whose fold
// rounds and read-out run on up to workers goroutines (≤ 1: the caller's).
func NewBucketTable(k, workers int) *BucketTable {
	checkK(k)
	t := &BucketTable{k: k, workers: min(max(workers, 1), numBuckets), shift: 64}
	t.tables = []*CountTable{t.newTable(0)}
	return t
}

// newTable returns an empty table for hint entries that grows through the
// counter's slot pool.
func (t *BucketTable) newTable(hint int) *CountTable {
	return &CountTable{k: t.k, slots: t.pool.get(tableCapacity(hint)), pool: &t.pool}
}

// AddRead counts every k-mer of r: into the single table before the split,
// into the buckets' staging blocks after it.
func (t *BucketTable) AddRead(r *genome.Sequence) {
	if t.staged == nil {
		single := t.tables[0]
		single.AddRead(r)
		if single.Len() > splitDistinct {
			t.split()
		}
		return
	}
	var kms [addBatch]Kmer
	for roll := newRoller(r, t.k); ; {
		n := roll.fill(kms[:])
		if n == 0 {
			return
		}
		for _, km := range kms[:n] {
			s := &t.staged[uint8(km>>t.shift)]
			if s.n == len(s.open) {
				t.nextBlock(s)
			}
			s.open[s.n] = km
			s.n++
		}
	}
}

// split moves the single table's entries, counts and all, into bucket
// tables sized for what each receives. No bucket holds anything yet, so
// every entry is a plain placement.
func (t *BucketTable) split() {
	single := t.tables[0]
	t.shift = 2*uint(t.k) - bucketBits
	var sizes [numBuckets]int
	for _, s := range single.slots {
		if s.Count != 0 {
			sizes[uint8(s.Kmer>>t.shift)]++
		}
	}
	t.tables = make([]*CountTable, numBuckets)
	for b := range t.tables {
		t.tables[b] = t.newTable(sizes[b])
	}
	for _, s := range single.slots {
		if s.Count != 0 {
			tbl := t.tables[uint8(s.Kmer>>t.shift)]
			tbl.place(s)
			tbl.n++
		}
	}
	t.probes = single.probeOps
	t.pool.put(single.slots)
	t.staged = new([numBuckets]stage)
}

// nextBlock files s's open block, which is full or absent, and cuts s a new
// one, folding every bucket first when the slab has no block left.
func (t *BucketTable) nextBlock(s *stage) {
	if s.n > 0 {
		s.full, s.n = append(s.full, s.open), 0
	}
	if t.cut == stageBudget/stageBlock {
		t.fold()
	}
	if t.slab == nil {
		t.slab = make([]Kmer, stageBudget)
	}
	at := t.cut * stageBlock
	s.open, s.n = t.slab[at:at+stageBlock:at+stageBlock], 0
	t.cut++
}

// fold adds every staged k-mer to its bucket's table, one bucket at a time
// on each worker, and frees the slab for the next round.
func (t *BucketTable) fold() {
	parallel.ForEachWorkers(t.workers, numBuckets, func(b int) {
		s, tbl := &t.staged[b], t.tables[b]
		for _, blk := range s.full {
			tbl.AddAll(blk)
		}
		tbl.AddAll(s.open[:s.n])
		s.full, s.open, s.n = s.full[:0], nil, 0
	})
	t.cut = 0
}

// settle folds whatever is staged.
func (t *BucketTable) settle() {
	if t.cut > 0 {
		t.fold()
	}
}

// K returns the table's k-mer length.
func (t *BucketTable) K() int { return t.k }

// Len returns the number of distinct k-mers counted.
func (t *BucketTable) Len() int {
	t.settle()
	n := 0
	for _, tbl := range t.tables {
		n += tbl.n
	}
	return n
}

// ProbeOps returns the slot comparisons of every table that counted.
func (t *BucketTable) ProbeOps() int64 {
	t.settle()
	ops := t.probes
	for _, tbl := range t.tables {
		ops += tbl.probeOps
	}
	return ops
}

// Count returns the stored count of km (0 if absent).
func (t *BucketTable) Count(km Kmer) uint32 {
	t.settle()
	return t.tables[uint8(km>>t.shift)].countHashed(km, km.Hash())
}

// CountAll stores Count(kms[i]) in counts[i] for every i.
func (t *BucketTable) CountAll(kms []Kmer, counts []uint32) {
	t.settle()
	counts = counts[:len(kms)]
	for i, km := range kms {
		counts[i] = t.tables[uint8(km>>t.shift)].countHashed(km, km.Hash())
	}
}

// FilterMinCount returns the entries with count ≥ min, sorted by k-mer, as
// CountTable.FilterMinCount does. The survivors are counted table by table
// and collected into one allocation, each table's run filtered into its
// place and radix-sorted there with one scratch buffer per worker.
func (t *BucketTable) FilterMinCount(min uint32) []Entry {
	t.settle()
	at := make([]int, len(t.tables)+1)
	for i, tbl := range t.tables {
		at[i+1] = at[i] + tbl.survivors(min)
	}
	out := make([]Entry, at[len(t.tables)])
	spans := parallel.Spans(len(t.tables), (len(t.tables)+t.workers-1)/t.workers)
	parallel.ForEachWorkers(t.workers, len(spans), func(w int) {
		var scratch []Entry
		for i := spans[w].Lo; i < spans[w].Hi; i++ {
			run := out[at[i]:at[i+1]]
			t.tables[i].filter(run, min)
			scratch = sortEntries(run, scratch)
		}
	})
	return out
}

// CountReadsParallel counts every k-mer of every read on a BucketTable whose
// fold rounds run on workers goroutines, and returns it settled.
func CountReadsParallel(reads []*genome.Sequence, k, workers int) *BucketTable {
	t := NewBucketTable(k, workers)
	for _, r := range reads {
		t.AddRead(r)
	}
	t.settle()
	return t
}

// slotPool keeps the slot arrays that tables grew out of, by size, for the
// next table that grows to that size. Growth is rare next to adds, so one
// mutex serves every fold worker. A nil pool allocates and keeps nothing.
type slotPool struct {
	mu   sync.Mutex
	free [bits.UintSize][][]Entry // free[i] holds arrays of 1<<i slots
}

// get returns n zeroed slots; n is a power of two.
func (p *slotPool) get(n int) []Entry {
	if p != nil {
		i := bits.TrailingZeros(uint(n))
		p.mu.Lock()
		if m := len(p.free[i]); m > 0 {
			s := p.free[i][m-1]
			p.free[i] = p.free[i][:m-1]
			p.mu.Unlock()
			clear(s)
			return s
		}
		p.mu.Unlock()
	}
	return make([]Entry, n)
}

// put hands s, which no table uses any more, to the next get of its size.
func (p *slotPool) put(s []Entry) {
	if p == nil {
		return
	}
	i := bits.TrailingZeros(uint(len(s)))
	p.mu.Lock()
	p.free[i] = append(p.free[i], s)
	p.mu.Unlock()
}
