package kmer

import (
	"cmp"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"pimassembler/internal/genome"
	"pimassembler/internal/stats"
)

// countWorkload builds one of the four workload shapes of the shard
// property-test suite's trials: clean reads, erroneous reads, a short
// genome, and reads barely above k.
func countWorkload(seed uint64, genomeLen, readLen, n int, errRate float64) []*genome.Sequence {
	rng := stats.NewRNG(seed)
	ref := genome.GenerateGenome(genomeLen, rng)
	return genome.NewReadSampler(ref, readLen, errRate, rng).Sample(n)
}

var countTrials = []struct {
	name                         string
	seed                         uint64
	genomeLen, readLen, numReads int
	errRate                      float64
}{
	{"clean reads", 21, 2_000, 101, 150, 0},
	{"erroneous reads", 22, 1_500, 80, 200, 0.01},
	{"short genome", 23, 400, 60, 64, 0},
	{"reads barely above k", 24, 900, 18, 120, 0},
}

// bucketSizes are the three sizes the bucketed counter behaves differently
// at: still one table, split with everything staged in one round, and split
// with at least one fold round started by a full slab.
var bucketSizes = []struct {
	name              string
	genomeLen, nReads int
	split, fold       bool
}{
	{"below the split", 20_000, 200, false, false},
	{"just past the split", 120_000, 1_000, true, false},
	{"past a fold round", 300_000, 32_000, true, true},
}

// addReads feeds reads to t one at a time and reports how many fold rounds
// a full slab started on the way.
func addReads(t *BucketTable, reads []*genome.Sequence) (folds int) {
	for _, r := range reads {
		before := cutBlocks(t)
		t.AddCodes(codesOf(r))
		if cutBlocks(t) < before {
			folds++
		}
	}
	return folds
}

// isSplit reports whether t has split into buckets.
func isSplit(t *BucketTable) bool {
	_, single := t.cur.(*CountTable)
	return !single
}

// cutBlocks returns the staging blocks cut since t's last fold round, 0
// before the split.
func cutBlocks(t *BucketTable) int {
	switch b := t.cur.(type) {
	case *buckets[uint32]:
		return b.cut
	case *buckets[Kmer]:
		return b.cut
	}
	return 0
}

// pastFoldProbesK16 is the ProbeOps of the "past a fold round" size at
// k = 16 when the buckets stored whole 8-byte codes: the code width must
// not move a probe.
const pastFoldProbesK16 = 3_522_552

// assertMatchesSerial compares every reader of a bucketed counter with the
// serial CountTable over the same reads: entries, which carry every counted
// k-mer's count, trimmed entries and Len.
func assertMatchesSerial(t *testing.T, label string, serial *CountTable, bt *BucketTable) {
	t.Helper()
	if bt.Len() != serial.Len() {
		t.Fatalf("%s: Len %d, want %d", label, bt.Len(), serial.Len())
	}
	if got := bt.FilterMinCount(1); !reflect.DeepEqual(got, serial.Entries()) {
		t.Fatalf("%s: entries diverge from serial", label)
	}
	if got := bt.FilterMinCount(2); !reflect.DeepEqual(got, serial.FilterMinCount(2)) {
		t.Fatalf("%s: FilterMinCount(2) diverges from serial", label)
	}
}

// countOf returns km's count in t's entries, 0 if t never counted it.
func countOf(t *BucketTable, km Kmer) uint32 {
	es := t.FilterMinCount(1)
	if i, ok := slices.BinarySearchFunc(es, km, func(e Entry, km Kmer) int { return cmp.Compare(e.Kmer, km) }); ok {
		return es[i].Count
	}
	return 0
}

// TestPartitionedMatchesSerial is the differential pin of the bucketed
// counter against CountReads: the four shard workload shapes at k ∈ {2..8},
// and three sizes — below the split, just past it, past a fold round — at
// k ∈ {8, 16, 20, 21, 31, 32}, which spans both code widths and the
// boundary between them.
func TestPartitionedMatchesSerial(t *testing.T) {
	for _, tr := range countTrials {
		t.Run(tr.name, func(t *testing.T) {
			reads := countWorkload(tr.seed, tr.genomeLen, tr.readLen, tr.numReads, tr.errRate)
			for k := 2; k <= 8; k++ {
				serial := CountReads(reads, k)
				for _, workers := range []int{1, 4, runtime.NumCPU()} {
					assertMatchesSerial(t, "", serial, CountReadsParallel(reads, k, workers))
				}
			}
		})
	}
	for i, size := range bucketSizes {
		t.Run(size.name, func(t *testing.T) {
			reads := countWorkload(uint64(31+i), size.genomeLen, 101, size.nReads, 0)
			for _, k := range []int{8, 16, 20, 21, 31, 32} {
				bt := NewBucketTable(k, 1)
				folds := addReads(bt, reads)
				if split := isSplit(bt); split != size.split || (folds > 0) != size.fold {
					t.Fatalf("k=%d: split %v after %d fold rounds; the size is meant to split: %v, fold: %v",
						k, split, folds, size.split, size.fold)
				}
				assertMatchesSerial(t, fmt.Sprintf("k=%d", k), CountReads(reads, k), bt)
				if size.fold && k == 16 && bt.ProbeOps() != pastFoldProbesK16 {
					t.Fatalf("k=16: %d probes, want %d", bt.ProbeOps(), pastFoldProbesK16)
				}
			}
		})
	}
}

// TestPartitionedWorkerInvariance pins the full bit-identity contract across
// worker counts: entries, Len and ProbeOps, which depends on each bucket's
// insertion order, at every size.
func TestPartitionedWorkerInvariance(t *testing.T) {
	for i, size := range bucketSizes {
		reads := countWorkload(uint64(41+i), size.genomeLen, 101, size.nReads, 0.002)
		for _, k := range []int{16, 20, 21, 31} {
			base := CountReadsParallel(reads, k, 1)
			entries := base.FilterMinCount(1)
			for _, workers := range []int{2, 4, runtime.NumCPU()} {
				bt := CountReadsParallel(reads, k, workers)
				if bt.ProbeOps() != base.ProbeOps() || bt.Len() != base.Len() {
					t.Fatalf("%s, k=%d, workers=%d: %d distinct after %d probes, want %d after %d (workers=1)",
						size.name, k, workers, bt.Len(), bt.ProbeOps(), base.Len(), base.ProbeOps())
				}
				if !reflect.DeepEqual(bt.FilterMinCount(1), entries) {
					t.Fatalf("%s, k=%d, workers=%d: entries diverge from workers=1", size.name, k, workers)
				}
			}
		}
	}
}

// TestCountReadsParallelDefault pins CountReadsParallel to the streaming
// form — NewBucketTable, then AddCodes read by read — and to returning a
// settled table, one nobody's lookup has to fold.
func TestCountReadsParallelDefault(t *testing.T) {
	reads := countWorkload(23, 120_000, 101, 1_000, 0)
	bt := CountReadsParallel(reads, 16, 2)
	if !isSplit(bt) || cutBlocks(bt) != 0 {
		t.Fatalf("split %v, %d blocks still staged: want a split, settled table", isSplit(bt), cutBlocks(bt))
	}
	want := NewBucketTable(16, 2)
	addReads(want, reads)
	if bt.ProbeOps() != want.ProbeOps() || !reflect.DeepEqual(bt.FilterMinCount(1), want.FilterMinCount(1)) {
		t.Fatal("CountReadsParallel differs from NewBucketTable + AddCodes")
	}
}

// TestBucketTableGeometry pins the split rule, the code width and the
// routing: k < 8 has too few k-mers to split, and at k ≥ 8 the table splits
// on the first read after which it holds more than splitDistinct k-mers,
// into numBuckets tables of which table b holds exactly the k-mers with code
// prefix b, at 4-byte codes up to k = maxK32 and 8-byte ones above.
func TestBucketTableGeometry(t *testing.T) {
	reads := countWorkload(51, 200_000, 101, 3_000, 0)
	small := CountReadsParallel(reads, 7, 1)
	if isSplit(small) || small.Len() < 1<<14-16 {
		t.Fatalf("k=7: split %v holding %d k-mers; want one table of nearly all 16384", isSplit(small), small.Len())
	}
	for _, k := range []int{8, 16, 20, 21, 32} {
		bt := NewBucketTable(k, 1)
		for _, r := range reads {
			before := bt.Len()
			bt.AddCodes(codesOf(r))
			if isSplit(bt) {
				if before > splitDistinct {
					t.Fatalf("k=%d: split one read late, at %d distinct", k, before)
				}
				break
			}
		}
		switch b := bt.cur.(type) {
		case *buckets[uint32]:
			if k > maxK32 {
				t.Fatalf("k=%d: 4-byte codes", k)
			}
			checkBuckets(t, k, b)
		case *buckets[Kmer]:
			if k <= maxK32 {
				t.Fatalf("k=%d: 8-byte codes", k)
			}
			checkBuckets(t, k, b)
		default:
			t.Fatalf("k=%d: never split", k)
		}
		if bt.Len() <= splitDistinct {
			t.Fatalf("k=%d: %d distinct", k, bt.Len())
		}
	}
}

// checkBuckets checks that bucket i of b, at k, holds only k-mers with code
// prefix i.
func checkBuckets[C code](t *testing.T, k int, b *buckets[C]) {
	t.Helper()
	if b.shift != 2*uint(k)-bucketBits {
		t.Fatalf("k=%d: shift %d", k, b.shift)
	}
	for i := range b.tables {
		tbl := &b.tables[i]
		for _, s := range tbl.slots {
			if km := tbl.prefix | Kmer(s.Kmer); s.Count != 0 && int(km>>b.shift) != i {
				t.Fatalf("k=%d: bucket %d holds %v", k, i, km)
			}
		}
	}
}

// TestCodeWidthsAgree builds the 8-byte-code buckets at k = 16, where the
// counter picks 4-byte ones, and pins the two widths to the same entries
// (and so counts), Len and ProbeOps at every size.
func TestCodeWidthsAgree(t *testing.T) {
	const k = 16
	for i, size := range bucketSizes {
		reads := countWorkload(uint64(31+i), size.genomeLen, 101, size.nReads, 0)
		narrow := NewBucketTable(k, 1)
		wide := NewBucketTable(k, 1)
		wide.split = splitBuckets[Kmer]
		addReads(narrow, reads)
		addReads(wide, reads)
		if _, ok := wide.cur.(*buckets[Kmer]); ok != size.split {
			t.Fatalf("%s: 8-byte buckets %v, want %v", size.name, ok, size.split)
		}
		if wide.Len() != narrow.Len() || wide.ProbeOps() != narrow.ProbeOps() {
			t.Fatalf("%s: 8-byte codes hold %d k-mers after %d probes, 4-byte %d after %d",
				size.name, wide.Len(), wide.ProbeOps(), narrow.Len(), narrow.ProbeOps())
		}
		if !reflect.DeepEqual(wide.FilterMinCount(1), narrow.FilterMinCount(1)) || !reflect.DeepEqual(wide.FilterMinCount(2), narrow.FilterMinCount(2)) {
			t.Fatalf("%s: entries differ between code widths", size.name)
		}
	}
}

// TestSplitCarriesSaturatedCounts pins that counts near MaxUint32 cross the
// split intact and keep saturating after it, as Add saturates.
func TestSplitCarriesSaturatedCounts(t *testing.T) {
	const k = 16
	reads := countWorkload(61, 120_000, 101, 1_000, 0)
	kms := AppendKmers(nil, codesOf(reads[0]), k)
	x, y := kms[0], kms[1]
	bt := NewBucketTable(k, 1)
	bt.AddCodes(codesOf(reads[0]))
	single := bt.cur.(*CountTable)
	for i := range single.slots {
		switch single.slots[i].Kmer {
		case x:
			single.slots[i].Count = math.MaxUint32 - 1
		case y:
			single.slots[i].Count = math.MaxUint32
		}
	}
	addReads(bt, reads[1:])
	if !isSplit(bt) {
		t.Fatal("fixture never splits")
	}
	if countOf(bt, x) < math.MaxUint32-1 || countOf(bt, y) != math.MaxUint32 {
		t.Fatalf("after the split: x=%d y=%d, want ≥ %d and %d", countOf(bt, x), countOf(bt, y), uint32(math.MaxUint32-1), uint32(math.MaxUint32))
	}
	// x three times and y once more, all staged and folded after the split.
	bt.AddCodes(codesOf(genome.MustFromString(strings.Repeat(x.String(k), 3) + y.String(k))))
	for _, e := range bt.FilterMinCount(math.MaxUint32) {
		if e.Kmer != x && e.Kmer != y {
			t.Fatalf("%v reached MaxUint32", e.Kmer)
		}
	}
	if countOf(bt, x) != math.MaxUint32 || countOf(bt, y) != math.MaxUint32 {
		t.Fatalf("x=%d y=%d, want both saturated at %d", countOf(bt, x), countOf(bt, y), uint32(math.MaxUint32))
	}
}

// TestWorkersClampedToGOMAXPROCS pins the fold and read-out fan-out to
// [1, GOMAXPROCS] whatever worker count the caller asks for.
func TestWorkersClampedToGOMAXPROCS(t *testing.T) {
	for _, workers := range []int{-1, 0, 1, runtime.GOMAXPROCS(0), 1_000_000, math.MaxInt} {
		want := min(max(workers, 1), runtime.GOMAXPROCS(0))
		if got := NewBucketTable(16, workers).workers; got != want {
			t.Fatalf("workers=%d: %d fold workers, want %d", workers, got, want)
		}
	}
}
