package kmer

// Counter is the stage-1 counting contract: everything the layers above the
// hash table consume — graph construction (Each, Len), read correction
// (Count, CountAll), trimming (FilterMinCount), spectra, deterministic
// enumeration (Entries), and the op-count extraction feeding the analytical
// models (ProbeOps). Both the serial CountTable and the hash-partitioned
// PartitionedTable satisfy it, so a pipeline switches between serial and
// parallel counting without touching any downstream code.
//
// Every method is read-only, so a Counter is safe for concurrent readers
// once counting has finished.
type Counter interface {
	// K returns the k-mer length.
	K() int
	// Len returns the number of distinct k-mers stored.
	Len() int
	// Count returns the stored count of km (0 if absent).
	Count(km Kmer) uint32
	// CountAll stores Count(kms[i]) in counts[i] for every i — one call per
	// batch instead of one per k-mer; len(counts) must be at least len(kms).
	CountAll(kms []Kmer, counts []uint32)
	// Each calls fn for every entry in unspecified order; return false to
	// stop early.
	Each(fn func(Kmer, uint32) bool)
	// Entries returns all entries sorted by k-mer value.
	Entries() []Entry
	// Spectrum returns the frequency spectrum (index 0 unused).
	Spectrum() []int64
	// FilterMinCount returns the entries with count ≥ min, sorted by k-mer.
	FilterMinCount(min uint32) []Entry
	// ProbeOps returns the slot comparisons counting performed; lookups add
	// none.
	ProbeOps() int64
}

var (
	_ Counter = (*CountTable)(nil)
	_ Counter = (*PartitionedTable)(nil)
)
