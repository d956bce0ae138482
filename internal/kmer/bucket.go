package kmer

import (
	"math/bits"
	"runtime"
	"slices"
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
	// maxK32 is the largest k whose code bits below the bucket prefix,
	// 2k - bucketBits of them, fit a uint32.
	maxK32 = (32 + bucketBits) / 2
	// stageBlock is the k-mers in one staging block and stageBudget the
	// k-mers of the slab the blocks are cut from. A fold round starts when a
	// bucket needs a block and the slab has none left.
	stageBlock  = 1 << 10
	stageBudget = 1 << 21
)

// BucketTable is stage 1's counter. It starts as one CountTable. When that
// table holds more than splitDistinct k-mers it splits into numBuckets
// tables: bucket b owns the k-mers whose top bucketBits code bits are b, a
// slice of k-mer space, as the paper's Hashmap gives each k-mer a home
// sub-array. From then on AddCodes stages each k-mer in its bucket's blocks,
// and a fold round adds the staged k-mers one bucket at a time, so each
// bucket's table is probed while it sits in cache instead of one large table
// missing on every add. Buckets are value ranges, so the sorted entries are
// the buckets' sorted runs laid end to end.
//
// A bucket's prefix fixes the top code bits, so the buckets stage and store
// only the low ones: 4 bytes of them for k ≤ maxK32, the whole 8-byte code
// above. Either way a k-mer's home slot is the hash of its whole code, so
// the width changes no probe.
//
// A bucket's k-mers reach its table in read order whatever the worker count,
// so counts, entries and Len are the same for every worker count, and are
// those of CountReads. The table prices no probes: OpCounts takes the
// mapping's design load, not a host table's growth path.
//
// Every reader folds what AddCodes and AddKmers left staged first, so the
// first read after either must not run beside another call. After it, any
// number of goroutines may read at once.
type BucketTable struct {
	k       int
	workers int   // fold and read-out goroutines, in [1, GOMAXPROCS]
	cur     phase // the single *CountTable until the split, then the buckets
	// split builds the buckets, at the code width NewBucketTable picked,
	// from the single table.
	split func(single *CountTable, workers int) phase
}

// phase is what a BucketTable counts with: the single CountTable before the
// split, a *buckets after it.
type phase interface {
	AddCodes(codes []byte)
	addAll(kms []Kmer)
	Len() int
	FilterMinCount(min uint32) []Entry
	// settle folds whatever is staged.
	settle()
}

// NewBucketTable returns an empty counter for k-mers of length k whose fold
// rounds and read-out run on up to workers goroutines (≤ 1: the caller's),
// never more than GOMAXPROCS.
func NewBucketTable(k, workers int) *BucketTable {
	checkK(k)
	t := &BucketTable{k: k, workers: min(max(workers, 1), runtime.GOMAXPROCS(0)), cur: NewCountTable(k, 0)}
	if k <= maxK32 {
		t.split = splitBuckets[uint32]
	} else {
		t.split = splitBuckets[Kmer]
	}
	return t
}

// AddCodes counts every k-mer of a read given as 2-bit codes, one byte (0-3)
// per base: into the single table before the split, into the buckets'
// staging blocks after it. The codes are not kept, so they may be a
// genome.ReadSource's borrowed buffer.
func (t *BucketTable) AddCodes(codes []byte) {
	t.cur.AddCodes(codes)
	t.maybeSplit()
}

// AddKmers counts each of kms, in slice order, as AddCodes counts a read's
// k-mers. kms is not kept.
func (t *BucketTable) AddKmers(kms []Kmer) {
	t.cur.addAll(kms)
	t.maybeSplit()
}

// maybeSplit turns the single table into the buckets once it holds more
// than splitDistinct k-mers.
func (t *BucketTable) maybeSplit() {
	if single, ok := t.cur.(*CountTable); ok && single.Len() > splitDistinct {
		t.cur = t.split(single, t.workers)
	}
}

// K returns the table's k-mer length.
func (t *BucketTable) K() int { return t.k }

// Len returns the number of distinct k-mers counted.
func (t *BucketTable) Len() int { return t.cur.Len() }

// FilterMinCount returns the entries with count ≥ min, sorted by k-mer, as
// CountTable.FilterMinCount does.
func (t *BucketTable) FilterMinCount(min uint32) []Entry { return t.cur.FilterMinCount(min) }

// CountReadsParallel counts every k-mer of every read on a BucketTable whose
// fold rounds run on workers goroutines, and returns it settled.
func CountReadsParallel(reads []*genome.Sequence, k, workers int) *BucketTable {
	t := NewBucketTable(k, workers)
	var codes []byte
	for _, r := range reads {
		codes = r.AppendCodes(codes[:0])
		t.AddCodes(codes)
	}
	t.cur.settle()
	return t
}

// buckets is a BucketTable after its split, storing codes at width C: bucket
// b's table holds the k-mers b<<shift | code.
type buckets[C code] struct {
	k       int
	shift   uint
	workers int
	tables  [numBuckets]table[C]
	// Since the last fold, bucket b has staged, in read order, the blocks of
	// slab starting at full[b], then slab[open[b].end-stageBlock:open[b].at].
	// The cursors sit in one small array, apart from the rest, because
	// staging a k-mer reads and writes one of them.
	open [numBuckets]cursor
	full [numBuckets][]int32
	slab []C // the staging blocks, cut in order
	cut  int // blocks cut from slab since the last fold
	pool slotPool[C]
}

// cursor is a bucket's open block in the slab: the index its next code goes
// to, and the block's end. A bucket with no block has at == end == 0.
type cursor struct{ at, end int32 }

// splitBuckets moves the single table's entries, counts and all, into bucket
// tables sized for what each receives. No bucket holds anything yet, so
// every entry is a plain placement.
func splitBuckets[C code](single *CountTable, workers int) phase {
	b := &buckets[C]{k: single.k, shift: 2*uint(single.k) - bucketBits, workers: workers,
		slab: make([]C, stageBudget)}
	var sizes [numBuckets]int
	for _, s := range single.slots {
		if s.Count != 0 {
			sizes[uint8(s.Kmer>>b.shift)]++
		}
	}
	for i := range b.tables {
		b.tables[i] = table[C]{prefix: Kmer(i) << b.shift, slots: b.pool.get(tableCapacity(sizes[i])), pool: &b.pool}
	}
	for _, s := range single.slots {
		if s.Count != 0 {
			tbl := &b.tables[uint8(s.Kmer>>b.shift)]
			tbl.place(slot[C]{C(s.Kmer), s.Count})
			tbl.n++
		}
	}
	return b
}

// AddCodes stages the low code bits of each k-mer of a read's codes in its
// bucket's open block. It rolls the codes itself rather than through
// codeRoller's batches: a k-mer goes from the window to its block directly.
// Rolling into a batch and staging it with addAll measured ≈ 13 % slower on
// BenchmarkSpectrum/k16/bucketed.
func (b *buckets[C]) AddCodes(codes []byte) {
	roll := newCodeRoller(codes, b.k)
	km, top, shift, slab := roll.km, roll.top, b.shift, b.slab
	for _, c := range roll.codes {
		km = km>>2 | Kmer(c&3)<<top
		i := uint8(km >> shift)
		o := &b.open[i]
		if o.at == o.end {
			b.nextBlock(i)
		}
		slab[o.at] = C(km)
		o.at++
	}
}

// addAll is AddCodes' staging loop over k-mers already rolled: each of kms,
// in slice order, goes to its bucket's open block.
func (b *buckets[C]) addAll(kms []Kmer) {
	shift, slab := b.shift, b.slab
	for _, km := range kms {
		i := uint8(km >> shift)
		o := &b.open[i]
		if o.at == o.end {
			b.nextBlock(i)
		}
		slab[o.at] = C(km)
		o.at++
	}
}

// nextBlock files bucket i's open block, which is full or absent, and cuts
// it a new one, folding every bucket first when the slab has no block left.
func (b *buckets[C]) nextBlock(i uint8) {
	o := &b.open[i]
	if o.end > 0 {
		b.full[i] = append(b.full[i], o.end-stageBlock)
	}
	*o = cursor{}
	if b.cut == stageBudget/stageBlock {
		b.fold()
	}
	at := int32(b.cut * stageBlock)
	*o = cursor{at, at + stageBlock}
	b.cut++
}

// fold adds every staged code to its bucket's table, one bucket at a time
// on each worker, and frees the slab for the next round.
func (b *buckets[C]) fold() {
	parallel.ForEachWorkers(b.workers, numBuckets, func(i int) {
		tbl := &b.tables[i]
		for _, at := range b.full[i] {
			tbl.addAll(b.slab[at : at+stageBlock])
		}
		if o := b.open[i]; o.end > 0 {
			tbl.addAll(b.slab[o.end-stageBlock : o.at])
		}
		b.full[i], b.open[i] = b.full[i][:0], cursor{}
	})
	b.cut = 0
}

// settle and the readers below implement phase for the buckets; every
// reader settles first.
func (b *buckets[C]) settle() {
	if b.cut > 0 {
		b.fold()
	}
}

func (b *buckets[C]) Len() int {
	b.settle()
	n := 0
	for i := range b.tables {
		n += b.tables[i].n
	}
	return n
}

// FilterMinCount reads each table's slots once, each worker taking a span
// of tables: it filters a table's slots into a reused run of n+1 slots (n
// bounds the survivors; filter writes one spare) and radix-sorts the run over
// the code bits alone. With min ≤ 1 every k-mer survives, so a table's share
// of the entries is its n, known before any slot is read, and the run is
// widened straight into its place. Above 1 a table's share is known only once
// its slots are read: its sorted survivors are kept, exactly sized, and
// widened into the entries once every table has been read. EXPERIMENTS E43
// measures both against one path for every min.
func (b *buckets[C]) FilterMinCount(min uint32) []Entry {
	b.settle()
	spans := parallel.Spans(numBuckets, (numBuckets+b.workers-1)/b.workers)
	var (
		at   [numBuckets + 1]int // at[i]: where table i's entries start
		out  []Entry
		kept [numBuckets][]slot[C] // with min > 1, table i's sorted survivors
	)
	if min <= 1 {
		for i := range b.tables {
			at[i+1] = at[i] + b.tables[i].n
		}
		out = make([]Entry, at[numBuckets])
	}
	parallel.ForEachWorkers(b.workers, len(spans), func(w int) {
		var run, scratch []slot[C]
		for i := spans[w].Lo; i < spans[w].Hi; i++ {
			tbl := &b.tables[i]
			run, scratch = tbl.sortedRun(run, scratch, min)
			if min <= 1 {
				tbl.widen(out[at[i]:at[i+1]], run)
			} else {
				kept[i] = slices.Clone(run)
			}
		}
	})
	if min <= 1 {
		return out
	}
	for i := range kept {
		at[i+1] = at[i] + len(kept[i])
	}
	out = make([]Entry, at[numBuckets])
	parallel.ForEachWorkers(b.workers, len(spans), func(w int) {
		for i := spans[w].Lo; i < spans[w].Hi; i++ {
			b.tables[i].widen(out[at[i]:at[i+1]], kept[i])
		}
	})
	return out
}

// slotPool keeps the slot arrays that tables grew out of, by size, for the
// next table that grows to that size. Growth is rare next to adds, so one
// mutex serves every fold worker. A nil pool allocates and keeps nothing.
type slotPool[C code] struct {
	mu   sync.Mutex
	free [bits.UintSize][][]slot[C] // free[i] holds arrays of 1<<i slots
}

// get returns n zeroed slots; n is a power of two.
func (p *slotPool[C]) get(n int) []slot[C] {
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
	return make([]slot[C], n)
}

// put hands s, which no table uses any more, to the next get of its size.
func (p *slotPool[C]) put(s []slot[C]) {
	if p == nil {
		return
	}
	i := bits.TrailingZeros(uint(len(s)))
	p.mu.Lock()
	p.free[i] = append(p.free[i], s)
	p.mu.Unlock()
}
