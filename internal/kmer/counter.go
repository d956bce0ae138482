package kmer

// Counter is the lookup contract of a finished stage-1 table: what read
// correction (internal/correct), its one consumer, asks of the spectrum.
// The serial CountTable and the bucketed BucketTable both satisfy it, so the
// corrector runs over either. It is not the stage-1 → stage-2 hand-off: the
// assembly pipeline passes graph construction one k-mer-sorted []Entry
// (debruijn.BuildEntries) and drops the table.
//
// Every method is read-only once counting has finished (a BucketTable's
// first read after its last AddCodes folds what is staged), so a finished
// Counter is safe for concurrent readers.
type Counter interface {
	// K returns the k-mer length.
	K() int
	// Count returns the stored count of km (0 if absent).
	Count(km Kmer) uint32
	// CountAll stores Count(kms[i]) in counts[i] for every i — one call per
	// batch instead of one per k-mer; len(counts) must be at least len(kms).
	CountAll(kms []Kmer, counts []uint32)
}

var (
	_ Counter = (*CountTable)(nil)
	_ Counter = (*BucketTable)(nil)
)
