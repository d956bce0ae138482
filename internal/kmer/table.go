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

// code is a width a table stores k-mer codes at: Kmer for whole codes, or
// uint32 for the low code bits of a bucket whose prefix supplies the rest.
type code interface{ ~uint32 | ~uint64 }

// slot is one (code, count) pair at code width C. Kmer holds the low code
// bits at that width; the table's prefix holds the rest.
type slot[C code] struct {
	Kmer  C
	Count uint32
}

// Entry is one (k-mer, count) pair: a slot at the full code width.
type Entry = slot[Kmer]

// table is open addressing with linear probing over slots of code width C,
// the probe discipline the PIM mapping uses row-by-row inside a sub-array, so
// its probe statistics transfer directly to the hardware cost model. Every
// k-mer it holds is prefix | Kmer(code), and a k-mer's home slot comes from
// the hash of that whole code, so the same k-mers probe the same slots at
// either width. A zero count marks an empty slot (addAll never stores one).
// The table doubles at load ½, so its capacity follows the number of
// distinct k-mers, whatever the number of occurrences.
type table[C code] struct {
	prefix   Kmer
	slots    []slot[C] // Count 0 = empty
	n        int
	probeOps int64        // total probe comparisons, for op-count extraction
	sink     uint32       // keeps addAll's look-ahead loads from being optimised away
	pool     *slotPool[C] // where grow takes and leaves slot arrays; nil allocates
}

// hash is the hash of the k-mer whose low code bits are c.
func (t *table[C]) hash(c C) uint64 { return (t.prefix | Kmer(c)).Hash() }

// addBatch is how many k-mers addAll hashes ahead of probing them.
const addBatch = 64

// addAll folds codes into the table in slice order, each one iteration of
// the Hashmap procedure in Fig. 5b: grow at load ½, probe linearly from the
// code's home slot, insert a new code with count 1 or increment a stored
// one. It takes them addBatch at a time, hashing a batch and loading each
// home slot before probing any: that puts the batch's cache misses in flight
// together, where the probe loop alone would wait for them one by one.
func (t *table[C]) addAll(cs []C) {
	var hashes [addBatch]uint64
	for len(cs) > 0 {
		batch := cs[:min(len(cs), addBatch)]
		cs = cs[len(batch):]
		slots := t.slots
		mask := uint64(len(slots) - 1)
		var loaded uint32
		for i, c := range batch {
			hashes[i] = t.hash(c)
			loaded |= slots[hashes[i]&mask].Count
		}
		t.sink = loaded
		n, probes := t.n, t.probeOps
		for i, c := range batch {
			if n*2 >= len(slots) {
				t.grow()
				slots = t.slots
				mask = uint64(len(slots) - 1)
			}
			for j := hashes[i] & mask; ; j = (j + 1) & mask {
				probes++
				s := &slots[j]
				if s.Count == 0 {
					s.Kmer, s.Count = c, 1
					n++
					break
				}
				if s.Kmer == c {
					// Saturate: a wrapped count would read as an empty slot.
					if s.Count != math.MaxUint32 {
						s.Count++
					}
					break
				}
			}
		}
		t.n, t.probeOps = n, probes
	}
}

// grow doubles the table. Rehashing costs no probeOps: the counter prices
// the Hashmap procedure's comparisons, not the host's table maintenance.
func (t *table[C]) grow() {
	old := t.slots
	t.slots = t.pool.get(len(old) * 2)
	for _, s := range old {
		if s.Count != 0 {
			t.place(s)
		}
	}
	t.pool.put(old)
}

// place stores s, whose code the table does not hold, in the first empty
// slot from its home. It neither counts probes nor checks the load: it is
// the re-insertion of growth and of a bucket split.
func (t *table[C]) place(s slot[C]) {
	mask := uint64(len(t.slots) - 1)
	j := t.hash(s.Kmer) & mask
	for t.slots[j].Count != 0 {
		j = (j + 1) & mask
	}
	t.slots[j] = s
}

// survivors counts the entries with count ≥ min.
func (t *table[C]) survivors(min uint32) int {
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

// filter copies the slots with count ≥ min into dst in slot order. It
// writes every slot to dst[i] and moves i past survivors only, so the loop
// keeps what it copies without a branch; dst needs one spare slot beyond the
// survivors(min) it keeps, for the slots written after the last of them.
func (t *table[C]) filter(dst []slot[C], min uint32) {
	min = max(min, 1) // an empty slot's zero count must never pass
	i := 0
	for _, s := range t.slots {
		dst[i] = s
		if s.Count >= min {
			i++
		}
	}
}

// CountTable is the software reference k-mer hash table: the open-addressing
// table over whole codes. A slot is one 16-byte Entry, so a probe touches one
// cache line.
type CountTable struct {
	k int
	table[Kmer]
}

// NewCountTable creates a table for k-mers of length k with capacity for at
// least hint distinct entries before growing.
func NewCountTable(k int, hint int) *CountTable {
	checkK(k)
	return &CountTable{k: k, table: table[Kmer]{slots: make([]Entry, tableCapacity(hint))}}
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
	t.addAll([]Kmer{km})
	return t.Count(km)
}

// AddCodes counts every k-mer of a read given as 2-bit codes, one byte
// (0-3) per base, in read order. It is the one stage-1 counting step:
// CountReads and the streaming pipeline both call it read by read, so both
// see the same table layout and probe statistics.
func (t *CountTable) AddCodes(codes []byte) {
	var kms [addBatch]Kmer
	for roll := newCodeRoller(codes, t.k); ; {
		n := roll.fill(kms[:])
		if n == 0 {
			return
		}
		t.addAll(kms[:n])
	}
}

// Count returns the stored count of km (0 if absent). It writes nothing:
// lookups are the host's queries, not the Hashmap procedure's comparisons,
// so ProbeOps does not count them and any number of goroutines may look up
// concurrently once counting has finished.
func (t *CountTable) Count(km Kmer) uint32 {
	mask := uint64(len(t.slots) - 1)
	for i := km.Hash() & mask; ; i = (i + 1) & mask {
		if s := &t.slots[i]; s.Count == 0 || s.Kmer == km {
			return s.Count
		}
	}
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

// settle does nothing: a CountTable stages nothing.
func (t *CountTable) settle() {}

// CountReads builds a table over every k-mer of every read: stage 1 of the
// assembly pipeline.
func CountReads(reads []*genome.Sequence, k int) *CountTable {
	t := NewCountTable(k, 0)
	var codes []byte
	for _, r := range reads {
		codes = r.AppendCodes(codes[:0])
		t.AddCodes(codes)
	}
	return t
}

// FilterMinCount returns the entries with count ≥ min, sorted by k-mer —
// the low-frequency error-trimming step assemblers apply before graph
// construction. Survivors are counted first and collected into one
// allocation, exact but for filter's spare slot, then sorted.
func (t *CountTable) FilterMinCount(min uint32) []Entry {
	n := t.survivors(min)
	out := make([]Entry, n+1)
	t.filter(out, min)
	out = out[:n]
	SortEntries(out)
	return out
}
