package kmer

import (
	"math"

	"pimassembler/internal/genome"
)

// tableCapacity returns the slot count backing an open-addressing table
// expected to hold hint entries: the smallest power of two keeping the load
// factor at or below ½, with a floor of 16. Hints large enough that the
// doubling would overflow int are clamped instead — the old unguarded loop
// wrapped capacity negative and spun forever on such hints.
func tableCapacity(hint int) int {
	const minCapacity = 16
	if hint <= minCapacity/2 {
		return minCapacity
	}
	if hint > math.MaxInt/4 {
		hint = math.MaxInt / 4
	}
	capacity := minCapacity
	for capacity < 2*hint {
		capacity *= 2
	}
	return capacity
}

// CountTable is the software reference k-mer hash table: open addressing
// with linear probing, the same probe discipline the PIM mapping uses
// row-by-row inside a sub-array, so its probe statistics transfer directly
// to the hardware cost model. A slot is one 16-byte Entry, so a probe touches
// one cache line; a zero count marks an empty slot (Add never stores one).
// The table doubles at load ½, so its capacity follows the number of
// distinct k-mers, whatever the number of occurrences.
type CountTable struct {
	k        int
	slots    []Entry // Count 0 = empty
	n        int
	probeOps int64     // total probe comparisons, for op-count extraction
	sink     uint32    // keeps AddAll's look-ahead loads from being optimised away
	pool     *slotPool // where grow takes and leaves slot arrays; nil allocates
}

// NewCountTable creates a table for k-mers of length k with capacity for at
// least hint distinct entries before growing.
func NewCountTable(k int, hint int) *CountTable {
	checkK(k)
	return &CountTable{k: k, slots: make([]Entry, tableCapacity(hint))}
}

// K returns the table's k-mer length.
func (t *CountTable) K() int { return t.k }

// Len returns the number of distinct k-mers stored.
func (t *CountTable) Len() int { return t.n }

// ProbeOps returns the cumulative number of slot comparisons performed — the
// quantity the performance model converts into PIM_XNOR operations.
func (t *CountTable) ProbeOps() int64 { return t.probeOps }

// Add increments the count of km, inserting it if absent, and returns the
// new count: one iteration of the Hashmap procedure in Fig. 5b.
func (t *CountTable) Add(km Kmer) uint32 {
	return t.addHashed(km, km.Hash())
}

// addHashed is Add with km's hash already computed.
func (t *CountTable) addHashed(km Kmer, hash uint64) uint32 {
	if t.n*2 >= len(t.slots) {
		t.grow()
	}
	mask := uint64(len(t.slots) - 1)
	i := hash & mask
	for {
		t.probeOps++
		s := &t.slots[i]
		if s.Count == 0 {
			s.Kmer, s.Count = km, 1
			t.n++
			return 1
		}
		if s.Kmer == km {
			// Saturate: a wrapped count would read as an empty slot.
			if s.Count != math.MaxUint32 {
				s.Count++
			}
			return s.Count
		}
		i = (i + 1) & mask
	}
}

// addBatch is how many k-mers AddAll hashes ahead of probing them.
const addBatch = 64

// AddAll folds k-mers into the table in slice order: exactly len(kms) Add
// calls, so counts and probe statistics are those of the plain loop. It takes
// them addBatch at a time, hashing a batch and loading each home slot before
// probing any: that puts the batch's cache misses in flight together, where
// the probe loop alone would wait for them one by one.
func (t *CountTable) AddAll(kms []Kmer) {
	var hashes [addBatch]uint64
	for len(kms) > 0 {
		batch := kms[:min(len(kms), addBatch)]
		mask := uint64(len(t.slots) - 1)
		var loaded uint32
		for i, km := range batch {
			hashes[i] = km.Hash()
			loaded |= t.slots[hashes[i]&mask].Count
		}
		t.sink = loaded
		for i, km := range batch {
			t.addHashed(km, hashes[i])
		}
		kms = kms[len(batch):]
	}
}

// AddRead counts every k-mer of r in read order. It is the one stage-1
// counting step: CountReads and the streaming pipeline both call it read by
// read, so both see the same table layout and probe statistics.
func (t *CountTable) AddRead(r *genome.Sequence) {
	var kms [addBatch]Kmer
	for roll := newRoller(r, t.k); ; {
		n := roll.fill(kms[:])
		if n == 0 {
			return
		}
		t.AddAll(kms[:n])
	}
}

// Count returns the stored count of km (0 if absent). It writes nothing:
// lookups are the host's queries, not the Hashmap procedure's comparisons,
// so ProbeOps does not count them and any number of goroutines may look up
// concurrently once counting has finished.
func (t *CountTable) Count(km Kmer) uint32 {
	return t.countHashed(km, km.Hash())
}

// countHashed is Count with km's hash already computed.
func (t *CountTable) countHashed(km Kmer, hash uint64) uint32 {
	mask := uint64(len(t.slots) - 1)
	for i := hash & mask; ; i = (i + 1) & mask {
		if s := &t.slots[i]; s.Count == 0 || s.Kmer == km {
			return s.Count
		}
	}
}

// CountAll stores Count(kms[i]) in counts[i] for every i: one call for a
// read's worth of lookups instead of one interface call per k-mer. Read-only,
// like Count. The lookups of a batch are independent loads, which the
// processor already overlaps; staging them AddAll-style (hash the batch, load
// every home slot, then resolve) measured 15–40 % slower than this loop at
// every table size tried (EXPERIMENTS.md E26).
func (t *CountTable) CountAll(kms []Kmer, counts []uint32) {
	counts = counts[:len(kms)]
	for i, km := range kms {
		counts[i] = t.countHashed(km, km.Hash())
	}
}

// grow doubles the table. Rehashing costs no probeOps: the counter prices
// the Hashmap procedure's comparisons, not the host's table maintenance.
func (t *CountTable) grow() {
	old := t.slots
	t.slots = t.pool.get(len(old) * 2)
	for _, s := range old {
		if s.Count != 0 {
			t.place(s)
		}
	}
	t.pool.put(old)
}

// place stores e, whose k-mer the table does not hold, in the first empty
// slot from its home. It neither counts probes nor checks the load: it is
// the re-insertion of growth and of a bucket split.
func (t *CountTable) place(e Entry) {
	mask := uint64(len(t.slots) - 1)
	j := e.Kmer.Hash() & mask
	for t.slots[j].Count != 0 {
		j = (j + 1) & mask
	}
	t.slots[j] = e
}

// Entry is one (k-mer, count) pair.
type Entry struct {
	Kmer  Kmer
	Count uint32
}

// Entries returns all entries sorted by k-mer value — a deterministic order
// for graph construction and tests. Ordering is the shared radix sort over
// the packed codes, not a comparison sort.
func (t *CountTable) Entries() []Entry {
	return t.FilterMinCount(1)
}

// Each calls fn for every entry in unspecified order; return false to stop.
func (t *CountTable) Each(fn func(Kmer, uint32) bool) {
	for _, s := range t.slots {
		if s.Count != 0 && !fn(s.Kmer, s.Count) {
			return
		}
	}
}

// CountReads builds a table over every k-mer of every read: stage 1 of the
// assembly pipeline.
func CountReads(reads []*genome.Sequence, k int) *CountTable {
	t := NewCountTable(k, 0)
	for _, r := range reads {
		t.AddRead(r)
	}
	return t
}

// FilterMinCount returns the entries with count ≥ min, sorted by k-mer —
// the low-frequency error-trimming step assemblers apply before graph
// construction. Survivors are counted first and collected into one exact
// allocation, then sorted.
func (t *CountTable) FilterMinCount(min uint32) []Entry {
	out := make([]Entry, t.survivors(min))
	t.filter(out, min)
	SortEntries(out)
	return out
}

// survivors counts the entries with count ≥ min.
func (t *CountTable) survivors(min uint32) int {
	if min <= 1 {
		return t.n
	}
	n := 0
	for _, s := range t.slots {
		if s.Count >= min {
			n++
		}
	}
	return n
}

// filter copies the entries with count ≥ min into dst in slot order; len(dst)
// is survivors(min).
func (t *CountTable) filter(dst []Entry, min uint32) {
	min = max(min, 1) // an empty slot's zero count must never pass
	i := 0
	for _, s := range t.slots {
		if s.Count >= min {
			dst[i] = s
			i++
		}
	}
}
